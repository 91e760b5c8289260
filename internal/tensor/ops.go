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

// Sub computes dst[i] -= src[i].
func Sub(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Sub length mismatch")
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// Mul computes dst[i] *= src[i] (Hadamard product).
func Mul(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Mul length mismatch")
	}
	for i, v := range src {
		dst[i] *= v
	}
}

// Scale computes x[i] *= a. It runs the axpy sweep's overwrite with
// dst = src (ov1), lane for lane the scalar product, so every result is
// bitwise the scalar loop's. A product of two NaNs returns x's, quieted.
func Scale(x []float32, a float32) {
	ov1(x, x, a)
}

// AXPY computes y[i] += a*x[i].
func AXPY(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Dot returns the inner product of x and y accumulated in float64 for
// stability.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(v) * float64(y[i])
	}
	return s
}

// Sum returns the float64-accumulated sum of x.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in x (0 for empty input).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// HasNaNOrInf reports whether x contains a non-finite value.
func HasNaNOrInf(x []float32) bool {
	for _, v := range x {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// MaxDiff returns the largest absolute elementwise difference between x
// and y, for numeric-equivalence tests.
func MaxDiff(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: MaxDiff length mismatch")
	}
	var m float64
	for i, v := range x {
		d := math.Abs(float64(v) - float64(y[i]))
		if d > m {
			m = d
		}
	}
	return m
}
