//go:build !amd64

package optimizer

// adamStep is the portable Adam update: the scalar loop the amd64 kernel
// (adam_amd64.s) reproduces bitwise.
func adamStep(params, m, v, grads []float32, b1, b2, wd float32, bc1, bc2, lr, eps float64) {
	adamScalar(params, m, v, grads, b1, b2, wd, bc1, bc2, lr, eps)
}
