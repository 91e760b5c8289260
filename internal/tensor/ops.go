package tensor

import "math"

// Elementwise and reduction primitives on flat fp32 slices. These are the
// building blocks of the optimizer and of the manual-backprop layers in
// internal/model. All functions panic on length mismatch: a shape error in
// the training stack is a programming bug, not a runtime condition.

// Lanes reports whether the kernels that need more than SSE2 run: AVX2,
// FMA and F16C, probed once at start-up. Lane kernels outside this package
// (the optimizer's Adam) dispatch on it rather than probe the CPU again.
func Lanes() bool { return useLanes }

// Zero sets every element of x to 0.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Copy copies src into dst (equal lengths required).
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
}

// Add computes dst[i] += src[i]. It runs the axpy sweep with a = 1, which
// is exact — 1·v is v for every float32 (a signalling NaN comes back quiet,
// as the add would leave it anyway) — so every sum is bitwise the scalar
// loop's. A sum of two NaNs returns dst's, quieted.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	axpy1(dst, src, 1)
}

// Scale computes x[i] *= a. It runs the axpy sweep's overwrite with
// dst = src (ov1), lane for lane the scalar product, so every result is
// bitwise the scalar loop's. A product of two NaNs returns x's, quieted.
func Scale(x []float32, a float32) {
	ov1(x, x, a)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
