package optimizer

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// adamQuot sets x[i] to the lane kernel's bias-corrected quotient x[i]/bc,
// given y = 1/bc. len(x) must be a multiple of 4.
//
//go:noescape
func adamQuot(x []float64, y, bc float64)

// skipSweep is set under the race detector (race_test.go).
var skipSweep bool

// sweepBiasCorrections are the bias corrections the exactness sweeps cover:
// β1 = 0.9 at t ∈ {1, 2, 3, 10, 100, 300} and β2 = 0.999 at t ∈ {1, 2, 10,
// 100, 1000, 10000, 30000}, computed as Adam.Step computes them.
func sweepBiasCorrections() []float64 {
	var bcs []float64
	for _, t := range []int{1, 2, 3, 10, 100, 300} {
		bcs = append(bcs, 1-math.Pow(0.9, float64(t)))
	}
	for _, t := range []int{1, 2, 10, 100, 1000, 10000, 30000} {
		bcs = append(bcs, 1-math.Pow(0.999, float64(t)))
	}
	return bcs
}

// The lane kernel divides by the bias correction as a reciprocal product
// and two FMA corrections (QUOT in adam_amd64.s); Markstein's theorem makes
// that the correctly rounded quotient. This sweep runs QUOT itself on every
// 251st float32 bit pattern as a dividend — all signs and exponents,
// subnormals, ±0, ±Inf and NaNs included — against each sweep bias
// correction and demands fp64 division's bits (a NaN only matches a NaN).
// An exhaustive run over all 2³² dividends found no mismatch either; it
// takes minutes, so it is not part of the suite.
func TestAdamReciprocalQuotientExact(t *testing.T) {
	if !tensor.Lanes() {
		t.Skip("the lane kernel needs AVX2 and FMA")
	}
	if skipSweep {
		t.Skip("numeric sweep; the run without -race covers it")
	}
	const stride = 251
	const chunk = 1 << 16
	xs := make([]float64, chunk)
	var mismatches int
	for _, bc := range sweepBiasCorrections() {
		y := 1 / bc
		for base := uint64(0); base < 1<<32; base += chunk * stride {
			n := 0
			for ; n < chunk && base+uint64(n)*stride < 1<<32; n++ {
				xs[n] = float64(math.Float32frombits(uint32(base + uint64(n)*stride)))
			}
			n4 := (n + 3) &^ 3
			for i := n; i < n4; i++ {
				xs[i] = 1
			}
			got := xs[:n4]
			want := make([]float64, n)
			for i := range want {
				want[i] = got[i] / bc
			}
			adamQuot(got, y, bc)
			for i, w := range want {
				g := got[i]
				if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
					if mismatches++; mismatches <= 5 {
						t.Errorf("%#08x/%v: reciprocal gives %#016x, division %#016x",
							uint32(base+uint64(i)*stride), bc, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches", mismatches)
	}
}
