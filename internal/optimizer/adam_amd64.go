//go:build amd64

package optimizer

import "repro/internal/tensor"

// adamLanes applies the decay-free Adam update to eight elements per
// iteration on AVX2 and FMA (adam_amd64.s). Every lane performs the scalar
// loop's operations in the scalar loop's order — fp32 moment updates, then
// the fp64 bias correction, square root, quotient and one rounding back to
// fp32 — except that the bias corrections multiply by a reciprocal instead
// of dividing. The step is bound by the fp64 divider, and two of its three
// divisions go: y1 = 1/bc1 and y2 = 1/bc2 are divided once per step, and
// each quotient x/bc becomes x·y refined by two FMA corrections. Markstein's
// theorem (IBM J. Res. Dev. 34(1), 1990) makes the refined quotient the
// correctly rounded x/bc, so the kernel is bitwise adamScalar (pinned by
// TestAdamPackedMatchesScalar, FuzzAdamLanes and
// TestAdamReciprocalQuotientExact). Every slice must be len(params) long, a
// multiple of 8. omb1 and omb2 are the fp32 differences 1-b1 and 1-b2.
//
//go:noescape
func adamLanes(params, m, v, grads []float32, b1, omb1, b2, omb2 float32, y1, bc1, y2, bc2, lr, eps float64)

// adamStep runs the lane kernel over the 8-multiple prefix of a decay-free
// step where tensor's probe found the lane features; the scalar loop
// finishes the tail and runs everything else: weight decay, and CPUs
// without AVX2 and FMA.
func adamStep(params, m, v, grads []float32, b1, b2, wd float32, bc1, bc2, lr, eps float64) {
	n8 := 0
	if wd == 0 && tensor.Lanes() {
		n8 = len(grads) &^ 7
	}
	if n8 > 0 {
		adamLanes(params[:n8], m[:n8], v[:n8], grads[:n8], b1, 1-b1, b2, 1-b2, 1/bc1, bc1, 1/bc2, bc2, lr, eps)
	}
	adamScalar(params[n8:], m[n8:], v[n8:], grads[n8:], b1, b2, wd, bc1, bc2, lr, eps)
}
