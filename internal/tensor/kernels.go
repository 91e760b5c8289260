package tensor

import (
	"math"
	"math/bits"
)

// Nonlinear kernels and their manual gradients. Forward signatures take
// destination first, mirroring the matmul kernels. Backward kernels follow
// the convention dX = backward(dY, saved-forward-state); they accumulate
// into dX, except GELUBackward, which overwrites it. GELU's saved state is
// its derivative, which forward writes beside y, so backward evaluates no
// tanh.

const sqrt2OverPi = 0.7978845608028654 // √(2/π), for the tanh GELU approximation

// The transcendental kernels run on the lane kernels when useLanes is set,
// on the eight-lane ones when useZMM is too, and one math.Exp or math.Tanh
// call per element otherwise. Each lane kernel is bitwise its scalar loop,
// and everything around it is one piece of code for every tier, so the
// tiers agree to the bit, NaN payloads included: which NaN a commutative op
// returns depends on the operand order the compiler picks, and shared code
// picks it once. GELU runs whole on the lanes and only its len mod 4 tail
// goes through gelu4's staging; softmax's exp runs on the lanes straight
// from the row, laneChunk (the width of expLanes's mask) elements at a time
// into a stack chunk of float64 results, and its len mod 4 tail calls
// math.Exp.
const laneChunk = 64

// GELU applies the tanh-approximated Gaussian error linear unit
// elementwise, y = 0.5x(1 + t) with t = tanh(√(2/π)(x + 0.044715x³)), and
// writes its derivative g′(x) = 0.5(1 + t) + 0.5x(1 − t²)·√(2/π)(1 +
// 0.134145x²) into gp in the same pass, for GELUBackward. gp may alias x.
// Each value is computed in float64, in the order written, and rounded
// once to float32.
func GELU(y, gp, x []float32) {
	if len(y) != len(x) || len(gp) != len(x) {
		panic("tensor: GELU length mismatch")
	}
	if useLanes {
		n := len(x) &^ 3
		if useZMM {
			geluLanesZ(y[:n], gp[:n], x[:n])
		} else {
			geluLanes(y[:n], gp[:n], x[:n])
		}
		y, gp, x = y[n:], gp[n:], x[n:]
	}
	for len(x) > 0 {
		n := min(len(x), 4)
		gelu4(y[:n], gp[:n], x[:n])
		y, gp, x = y[n:], gp[n:], x[n:]
	}
}

// gelu4 is GELU on at most four elements, with tanh from tanhLanes on a
// padded stack chunk or from math.Tanh. It is the reference geluLanes
// matches lane for lane.
func gelu4(y, gp, x []float32) {
	var u, t [4]float64
	for i, v := range x {
		f := float64(v)
		u[i] = sqrt2OverPi * (f + 0.044715*f*f*f)
	}
	if useLanes {
		tanhLanes(t[:], u[:])
	} else {
		for i, v := range u[:len(x)] {
			t[i] = math.Tanh(v)
		}
	}
	for i, v := range x {
		f := float64(v)
		du := sqrt2OverPi * (1 + 3*0.044715*f*f) // 3*0.044715 folds to one constant
		y[i] = float32(0.5 * f * (1 + t[i]))
		gp[i] = float32(0.5*(1+t[i]) + 0.5*f*(1-t[i]*t[i])*du)
	}
}

// GELUBackward writes dx[i] = dy[i]·gp[i], gp being the g′ GELU wrote, as
// the sum 0 + dy[i]·gp[i]: a −0 product comes out +0 and a NaN keeps its
// payload, the bits of accumulating into a zeroed dx. dx may alias dy.
func GELUBackward(dx, dy, gp []float32) {
	if len(dx) != len(dy) || len(dx) != len(gp) {
		panic("tensor: GELUBackward length mismatch")
	}
	gp = gp[:len(dx)]
	dy = dy[:len(dx)]
	for i := range dx {
		dx[i] = 0 + dy[i]*gp[i]
	}
}

// LayerNorm normalizes each row of x[m×n] to zero mean and unit variance,
// then applies the learned affine (gamma, beta). It writes the normalized
// pre-affine values into xhat (needed by the backward pass) and the output
// into y. invStd receives 1/√(var+eps) per row.
func LayerNorm(y, xhat, invStd, x, gamma, beta []float32, m, n int, eps float32) {
	checkDims(len(x), m*n, "x")
	checkDims(len(y), m*n, "y")
	checkDims(len(xhat), m*n, "xhat")
	checkDims(len(invStd), m, "invStd")
	checkDims(len(gamma), n, "gamma")
	checkDims(len(beta), n, "beta")
	for i := 0; i < m; i++ {
		row := x[i*n : i*n+n]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(n)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(n)
		is := float32(1 / math.Sqrt(variance+float64(eps)))
		invStd[i] = is
		xh := xhat[i*n : i*n+n]
		yr := y[i*n : i*n+n]
		for j, v := range row {
			h := (v - float32(mean)) * is
			xh[j] = h
			yr[j] = gamma[j]*h + beta[j]
		}
	}
}

// LayerNormBackward accumulates input gradients into dx and parameter
// gradients into dGamma/dBeta, given upstream dy and the saved xhat/invStd.
func LayerNormBackward(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32, m, n int) {
	checkDims(len(dx), m*n, "dx")
	checkDims(len(dy), m*n, "dy")
	checkDims(len(xhat), m*n, "xhat")
	checkDims(len(invStd), m, "invStd")
	checkDims(len(gamma), n, "gamma")
	checkDims(len(dGamma), n, "dGamma")
	checkDims(len(dBeta), n, "dBeta")
	for i := 0; i < m; i++ {
		dyr := dy[i*n : i*n+n]
		xh := xhat[i*n : i*n+n]
		dxr := dx[i*n : i*n+n]
		// Parameter gradients.
		for j, g := range dyr {
			dGamma[j] += g * xh[j]
			dBeta[j] += g
		}
		// Input gradient: dx = invStd*(dxhat - mean(dxhat) - xhat*mean(dxhat⊙xhat)).
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			dxh := float64(g) * float64(gamma[j])
			sumDxh += dxh
			sumDxhXh += dxh * float64(xh[j])
		}
		meanDxh := sumDxh / float64(n)
		meanDxhXh := sumDxhXh / float64(n)
		is := float64(invStd[i])
		for j, g := range dyr {
			dxh := float64(g) * float64(gamma[j])
			dxr[j] += float32(is * (dxh - meanDxh - float64(xh[j])*meanDxhXh))
		}
	}
}

// softmaxRows applies a numerically stable softmax to each row of x[m×n],
// writing into y (y may alias x).
func softmaxRows(y, x []float32, m, n int) {
	checkDims(len(x), m*n, "x")
	checkDims(len(y), m*n, "y")
	var e [laneChunk]float64
	for i := 0; i < m; i++ {
		softmaxRow(y[i*n:i*n+n], x[i*n:i*n+n], &e)
	}
}

// softmaxRow writes the softmax of row into out (which may alias it),
// staging exp's float64 results in e. The float64 sum folds in j order.
func softmaxRow(out, row []float32, e *[laneChunk]float64) {
	max := rowMax(row)
	var sum float64
	for lo := 0; lo < len(row); lo += laneChunk {
		hi := min(lo+laneChunk, len(row))
		expShifted(e, out[lo:hi], row[lo:hi], max)
		for _, v := range e[:hi-lo] {
			sum += v
		}
	}
	Scale(out, float32(1/sum))
}

// rowMax returns row's largest element by strict >: the first of a run of
// equal maxima, and row[0] if it is NaN, any other NaN never winning. The
// lanes keep a maximum per lane and merge in lane order, which differs
// only in which of −0 and +0 a zero maximum is; softmax's v − max, and so
// its output, is the same bits either way.
func rowMax(row []float32) float32 {
	max, n := row[0], 0
	if useLanes && len(row) >= 8 {
		n = len(row) &^ 7
		var m [8]float32
		maxLanes(&m, row[:n])
		for _, v := range m {
			if v > max {
				max = v
			}
		}
	}
	for _, v := range row[n:] {
		if v > max {
			max = v
		}
	}
	return max
}

// expShifted sets e[j] = math.Exp(float64(row[j] − max)) and out[j] =
// float32(e[j]) for j < len(row) ≤ laneChunk, out aliasing row or not:
// on the lanes, finishing in scalar the lanes expLanes hands back.
func expShifted(e *[laneChunk]float64, out, row []float32, max float32) {
	n, m := 0, uint64(0)
	if useLanes {
		n = len(row) &^ 3
		if useZMM {
			m = expLanesZ(e[:n], out, row, max)
		} else {
			m = expLanes(e[:n], out, row, max)
		}
	}
	for ; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		e[j] = math.Exp(e[j])
		out[j] = float32(e[j])
	}
	for j := n; j < len(row); j++ {
		e[j] = math.Exp(float64(row[j] - max))
		out[j] = float32(e[j])
	}
}

// softmaxRowsBackward accumulates dx given dy and the saved softmax output p:
// dx = p ⊙ (dy - Σ dy⊙p) per row.
func softmaxRowsBackward(dx, dy, p []float32, m, n int) {
	checkDims(len(dx), m*n, "dx")
	checkDims(len(dy), m*n, "dy")
	checkDims(len(p), m*n, "p")
	for i := 0; i < m; i++ {
		dyr := dy[i*n : i*n+n]
		pr := p[i*n : i*n+n]
		dxr := dx[i*n : i*n+n]
		var dot float64
		for j, v := range dyr {
			dot += float64(v) * float64(pr[j])
		}
		for j, v := range dyr {
			dxr[j] += pr[j] * (v - float32(dot))
		}
	}
}

// CrossEntropy computes the mean negative log-likelihood of targets under
// row-wise softmax(logits[m×v]) and writes softmax probabilities into probs
// (for the backward pass). It returns the scalar loss.
func CrossEntropy(probs, logits []float32, targets []int, m, v int) float64 {
	checkDims(len(logits), m*v, "logits")
	checkDims(len(probs), m*v, "probs")
	checkDims(len(targets), m, "targets")
	softmaxRows(probs, logits, m, v)
	var loss float64
	for i, t := range targets {
		if t < 0 || t >= v {
			panic("tensor: CrossEntropy target out of range")
		}
		p := float64(probs[i*v+t])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	return loss / float64(m)
}

// CrossEntropyBackward writes dLogits = (probs - onehot(targets)) / m as
// probs·(1/m) − onehot·(1/m), each row scaled by the axpy sweep's overwrite
// (ov1), lane for lane the scalar product.
func CrossEntropyBackward(dLogits, probs []float32, targets []int, m, v int) {
	checkDims(len(dLogits), m*v, "dLogits")
	checkDims(len(probs), m*v, "probs")
	checkDims(len(targets), m, "targets")
	inv := float32(1) / float32(m)
	for i := 0; i < m; i++ {
		out := dLogits[i*v : i*v+v]
		ov1(out, probs[i*v:i*v+v], inv)
		out[targets[i]] -= inv
	}
}
