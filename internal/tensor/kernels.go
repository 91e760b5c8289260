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

// The transcendental kernels stage their arguments on the stack in chunks
// of laneChunk (the width of expLanes's mask) and fill the chunk's exp with
// the lane kernels when useLanes is set, one math.Exp call per element
// otherwise. Everything around that fill is one piece of code for both, so
// the two agree to the bit, NaN payloads included: which NaN a commutative
// op returns depends on the operand order the compiler picks, and shared
// code picks it once. GELU runs whole on the lanes (geluLanes) and only its
// len mod 4 tail goes through gelu4's staging.
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
		geluLanes(y[:n], gp[:n], x[:n])
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

// expChunk sets e[i] = math.Exp(d[i]) for i < n, finishing in scalar the
// lanes expLanes hands back.
func expChunk(e, d *[laneChunk]float64, n int) {
	if !useLanes {
		for i, v := range d[:n] {
			e[i] = math.Exp(v)
		}
		return
	}
	for m := expLanes(e[:(n+3)&^3], d[:]) & (1<<n - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e[i] = math.Exp(d[i])
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
	var d, e [laneChunk]float64
	for i := 0; i < m; i++ {
		softmaxRow(y[i*n:i*n+n], x[i*n:i*n+n], &d, &e)
	}
}

// softmaxRow writes the softmax of row into out (which may alias it),
// staging exp's arguments and results in d and e. The float64 sum folds in
// j order.
func softmaxRow(out, row []float32, d, e *[laneChunk]float64) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for lo := 0; lo < len(row); lo += laneChunk {
		c := row[lo:min(lo+laneChunk, len(row))]
		for j, v := range c {
			d[j] = float64(v - max)
		}
		expChunk(e, d, len(c))
		for j, v := range e[:len(c)] {
			out[lo+j] = float32(v)
			sum += v
		}
	}
	inv := float32(1 / sum)
	for j := range out {
		out[j] *= inv
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

// CrossEntropyBackward writes dLogits = (probs - onehot(targets)) / m.
func CrossEntropyBackward(dLogits, probs []float32, targets []int, m, v int) {
	checkDims(len(dLogits), m*v, "dLogits")
	checkDims(len(probs), m*v, "probs")
	checkDims(len(targets), m, "targets")
	inv := float32(1) / float32(m)
	for i := 0; i < m; i++ {
		row := probs[i*v : i*v+v]
		out := dLogits[i*v : i*v+v]
		for j, p := range row {
			out[j] = p * inv
		}
		out[targets[i]] -= inv
	}
}
