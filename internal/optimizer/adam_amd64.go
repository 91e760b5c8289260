//go:build amd64

package optimizer

// adamQuadsSSE2 applies the decay-free Adam update to four elements per
// iteration (adam_amd64.s). Every lane performs the scalar loop's operations
// in the scalar loop's order — fp32 moment updates, then the fp64 bias
// correction, square root, quotient and one rounding back to fp32 — and
// packed SSE2 arithmetic is correctly rounded per lane, so the kernel is
// bitwise adamScalar (pinned by TestAdamPackedMatchesScalar). What it buys
// is the divider: the step is bound by three divisions and a square root per
// element, and DIVPD/SQRTPD retire two elements for the price of one.
// Every slice must be len(params) long, a multiple of 4. omb1 and omb2 are
// the fp32 differences 1-b1 and 1-b2.
//
//go:noescape
func adamQuadsSSE2(params, m, v, grads []float32, b1, omb1, b2, omb2 float32, bc1, bc2, lr, eps float64)

// adamStep runs the packed kernel over the 4-multiple prefix of a decay-free
// step; the scalar loop finishes the tail and serves weight decay.
func adamStep(params, m, v, grads []float32, b1, b2, wd float32, bc1, bc2, lr, eps float64) {
	n4 := 0
	if wd == 0 {
		n4 = len(grads) &^ 3
	}
	if n4 > 0 {
		adamQuadsSSE2(params[:n4], m[:n4], v[:n4], grads[:n4], b1, 1-b1, b2, 1-b2, bc1, bc2, lr, eps)
	}
	adamScalar(params[n4:], m[n4:], v[n4:], grads[n4:], b1, b2, wd, bc1, bc2, lr, eps)
}
