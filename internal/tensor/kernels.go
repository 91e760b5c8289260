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
// into y. invStd receives 1/√(var+eps) per row. A row's mean and variance
// are float64 sums folded in ascending j.
//
// With the lanes on, rows go eight at a time (layerNorm8); the m mod 8
// rows left, and every row where the lanes are off, run the row loops
// below, which the blocks match bit for bit.
func LayerNorm(y, xhat, invStd, x, gamma, beta []float32, m, n int, eps float32) {
	checkDims(len(x), m*n, "x")
	checkDims(len(y), m*n, "y")
	checkDims(len(xhat), m*n, "xhat")
	checkDims(len(invStd), m, "invStd")
	checkDims(len(gamma), n, "gamma")
	checkDims(len(beta), n, "beta")
	i := 0
	if useLanes {
		for ; i+8 <= m; i += 8 {
			lo, hi := i*n, (i+8)*n
			layerNorm8(y[lo:hi], xhat[lo:hi], invStd[i:i+8], x[lo:hi], gamma, beta, n, eps)
		}
	}
	for ; i < m; i++ {
		lo, hi := i*n, i*n+n
		row := x[lo:hi]
		mean := lnFold(0, row) / float64(n)
		is := lnInvStd(lnFoldSq(0, mean, row), n, eps)
		invStd[i] = is
		lnNormalize(y[lo:hi], xhat[lo:hi], row, gamma, beta, float32(mean), is)
	}
}

// layerNorm8 is LayerNorm on eight rows. Each float64 sum folds one lane
// per row over the columns below n8 = n &^ 7 (the transposed 8×8 blocks
// of lnSum and lnVar), so every row keeps its fold order, and the row
// loops fold the rest; the normalize pass runs lanes over j (lnAffine).
func layerNorm8(y, xhat, invStd, x, gamma, beta []float32, n int, eps float32) {
	var mean, variance [8]float64
	n8 := n &^ 7
	lnSum(&mean, x, n, n8)
	for r := range mean {
		mean[r] = lnFold(mean[r], x[r*n+n8:r*n+n]) / float64(n)
	}
	lnVar(&variance, &mean, x, n, n8)
	var mu, is [8]float32
	for r := range variance {
		is[r] = lnInvStd(lnFoldSq(variance[r], mean[r], x[r*n+n8:r*n+n]), n, eps)
		mu[r] = float32(mean[r])
	}
	copy(invStd, is[:])
	lnAffine(y, xhat, x, gamma, beta, &mu, &is, n, n8)
	for r := range is {
		lo, hi := r*n+n8, r*n+n
		lnNormalize(y[lo:hi], xhat[lo:hi], x[lo:hi], gamma[n8:], beta[n8:], mu[r], is[r])
	}
}

// LayerNormBackward accumulates input gradients into dx and parameter
// gradients into dGamma/dBeta, given upstream dy and the saved xhat/invStd.
// Rows go as in LayerNorm: eight at a time on the lanes
// (layerNormBackward8), the rest through the row loops.
func LayerNormBackward(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32, m, n int) {
	checkDims(len(dx), m*n, "dx")
	checkDims(len(dy), m*n, "dy")
	checkDims(len(xhat), m*n, "xhat")
	checkDims(len(invStd), m, "invStd")
	checkDims(len(gamma), n, "gamma")
	checkDims(len(dGamma), n, "dGamma")
	checkDims(len(dBeta), n, "dBeta")
	i := 0
	if useLanes {
		for ; i+8 <= m; i += 8 {
			lo, hi := i*n, (i+8)*n
			layerNormBackward8(dx[lo:hi], dGamma, dBeta, dy[lo:hi], xhat[lo:hi], invStd[i:i+8], gamma, n)
		}
	}
	for ; i < m; i++ {
		lo, hi := i*n, i*n+n
		dyr, xh := dy[lo:hi], xhat[lo:hi]
		lnParamRow(dGamma, dBeta, dyr, xh)
		sumDxh, sumDxhXh := lnDotRow(0, 0, dyr, xh, gamma)
		lnInputRow(dx[lo:hi], dyr, xh, gamma, float64(invStd[i]), sumDxh/float64(n), sumDxhXh/float64(n))
	}
}

// layerNormBackward8 is LayerNormBackward on eight rows, split between
// the kernels and the row loops as layerNorm8 splits them: lnParamGrad
// folds the rows into dGamma and dBeta in row order, lanes over j; lnDot
// folds the two float64 sums one lane per row; lnInputGrad runs lanes
// over j.
func layerNormBackward8(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32, n int) {
	// mdx and mdxx hold each row's sums of dxh and dxh·x̂, then their means.
	var mdx, mdxx, is [8]float64
	n8 := n &^ 7
	lnParamGrad(dGamma[:n8], dBeta[:n8], dy, xhat, n)
	lnDot(&mdx, &mdxx, dy, xhat, gamma, n, n8)
	for r := range is {
		lo, hi := r*n+n8, r*n+n
		lnParamRow(dGamma[n8:], dBeta[n8:], dy[lo:hi], xhat[lo:hi])
		s, t := lnDotRow(mdx[r], mdxx[r], dy[lo:hi], xhat[lo:hi], gamma[n8:])
		mdx[r], mdxx[r], is[r] = s/float64(n), t/float64(n), float64(invStd[r])
	}
	lnInputGrad(dx, dy, xhat, gamma, &is, &mdx, &mdxx, n, n8)
	for r := range is {
		lo, hi := r*n+n8, r*n+n
		lnInputRow(dx[lo:hi], dy[lo:hi], xhat[lo:hi], gamma[n8:], is[r], mdx[r], mdxx[r])
	}
}

// The LayerNorm row loops: each runs over one row, or the columns of one
// past a block's lanes, in ascending j. Where both operands of an add or
// a multiply are NaNs, x86 returns the first one's payload, quieted, and
// Go leaves the operand order to the compiler, which picks it by register
// allocation (differently on 386, or under -race). So every such op here
// goes through add32, mul32, add64 or mul64, which fix the first operand:
// the same one the lane kernels in transpose_amd64.s put first.

// lnFold returns s + float64(v) over row, the sum first.
func lnFold(s float64, row []float32) float64 {
	for _, v := range row {
		s = add64(s, float64(v))
	}
	return s
}

// lnFoldSq returns s + d·d over row, d = float64(v) − mean, the sum first.
func lnFoldSq(s, mean float64, row []float32) float64 {
	for _, v := range row {
		d := float64(v) - mean
		s = add64(s, d*d)
	}
	return s
}

// lnInvStd is 1/√(sq/n + eps) for a row's sum of squared deviations sq.
func lnInvStd(sq float64, n int, eps float32) float32 {
	return float32(1 / math.Sqrt(add64(sq/float64(n), float64(eps))))
}

// lnNormalize writes h = (x − mean)·is into xh and h·γ + β into y.
func lnNormalize(y, xh, x, gamma, beta []float32, mean, is float32) {
	for j, v := range x {
		h := mul32(v-mean, is)
		xh[j] = h
		y[j] = add32(mul32(h, gamma[j]), beta[j])
	}
}

// lnParamRow folds one row into dγ = x̂·dy + dγ and dβ = dβ + dy.
func lnParamRow(dGamma, dBeta, dy, xh []float32) {
	for j, g := range dy {
		dGamma[j] = add32(mul32(xh[j], g), dGamma[j])
		dBeta[j] = add32(dBeta[j], g)
	}
}

// lnDotRow returns s + dxh and t + x̂·dxh over one row, dxh = γ·dy in
// float64, the sums first.
func lnDotRow(s, t float64, dy, xh, gamma []float32) (float64, float64) {
	for j, g := range dy {
		dxh := mul64(float64(gamma[j]), float64(g))
		s = add64(s, dxh)
		t = add64(t, mul64(float64(xh[j]), dxh))
	}
	return s, t
}

// lnInputRow accumulates one row's input gradient: dx = float32(((γ·dy −
// mdx) − x̂·mdxx)·is) + dx, the products and differences in float64.
func lnInputRow(dx, dy, xh, gamma []float32, is, mdx, mdxx float64) {
	for j, g := range dy {
		d := mul64(float64(gamma[j]), float64(g)) - mdx - mul64(float64(xh[j]), mdxx)
		dx[j] = add32(float32(mul64(d, is)), dx[j])
	}
}

// add32 is a + b, and mul32 a·b, with a the first operand: a NaN a gives
// its own payload, quieted.
func add32(a, b float32) float32 {
	if a != a {
		return quiet32(a)
	}
	return a + b
}

func mul32(a, b float32) float32 {
	if a != a {
		return quiet32(a)
	}
	return a * b
}

func quiet32(a float32) float32 { return math.Float32frombits(math.Float32bits(a) | 1<<22) }

// add64 and mul64 are add32 and mul32 in float64.
func add64(a, b float64) float64 {
	if a != a {
		return quiet64(a)
	}
	return a + b
}

func mul64(a, b float64) float64 {
	if a != a {
		return quiet64(a)
	}
	return a * b
}

func quiet64(a float64) float64 { return math.Float64frombits(math.Float64bits(a) | 1<<51) }

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
