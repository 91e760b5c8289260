package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// addSpecials is every float32 class the sum can treat differently: signed
// zeros and infinities, quiet and signalling NaNs with payloads and both
// signs, subnormals, the normal boundary and the finite extremes.
var addSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffd00001, // quiet NaNs
	0x7f800001, 0xff800001, 0x7fa00000, 0x7f8abcde, // signalling NaNs
	0x00000001, 0x80000001, 0x00400000, 0x807fffff, // subnormals
	0x00800000, 0x80800000, // smallest normals
	0x7f7fffff, 0xff7fffff, 0x7f7ffffe, // max finite
	0x3f800000, 0xbf800000, 0x33800000, // ±1, 2^-24
}

// Add runs the axpy lane with a = 1; it must match the scalar loop it
// replaced bit for bit, NaN payloads and signs included, at every position
// of the 8-wide body and the scalar tail. The one case the loop does not
// fix is a sum of two NaNs: IEEE 754 lets either payload through, x86
// returns the first operand's, and which operand comes first in the loop is
// the compiler's choice. Add pins it to dst's NaN, quieted — the axpy
// sweep's operand order, on the SSE lanes and in the portable fallback.
func TestAddMatchesScalarLoop(t *testing.T) {
	var dst, src []float32
	for _, a := range addSpecials {
		for _, b := range addSpecials {
			dst = append(dst, math.Float32frombits(a))
			src = append(src, math.Float32frombits(b))
		}
	}
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 4096; i++ {
		dst = append(dst, math.Float32frombits(r.Uint32()))
		src = append(src, math.Float32frombits(r.Uint32()))
		// Same-scale pairs, where rounding and cancellation happen.
		x := float32(r.NormFloat64()) * float32(math.Ldexp(1, r.Intn(80)-40))
		dst = append(dst, x)
		src = append(src, -x*float32(1+r.NormFloat64()*1e-6))
	}
	for _, off := range []int{0, 1, 3, 7} {
		for _, n := range []int{0, 1, 5, 8, 13, len(dst) - off} {
			d, s := dst[off:off+n], src[off:off+n]
			want := append([]float32(nil), d...)
			for i, v := range s {
				want[i] += v
				if v != v && d[i] != d[i] {
					want[i] = math.Float32frombits(math.Float32bits(d[i]) | 0x00400000)
				}
			}
			got := append([]float32(nil), d...)
			Add(got, s)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("off %d n %d elem %d: %#08x + %#08x = %#08x, scalar loop %#08x", off, n, i,
						math.Float32bits(d[i]), math.Float32bits(s[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// Scale runs ov1 with dst = src; it must match the scalar loop x[i] *= a
// bit for bit over every special class as both factor and scale — signed
// zeros and infinities, subnormals, max-finite, NaNs — at every position of
// the 8-wide body and the scalar tail. As for Add, the loop leaves open
// which payload a product of two NaNs returns; Scale pins it to x's NaN,
// quieted.
func TestScaleMatchesScalarLoop(t *testing.T) {
	var x []float32
	for _, v := range addSpecials {
		x = append(x, math.Float32frombits(v))
	}
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 4096; i++ {
		x = append(x, math.Float32frombits(r.Uint32()))
	}
	scales := append([]uint32{0x3f000000, 0x40000000, 0x3f7fffff, 0x7f000000, 0x00800000}, addSpecials...)
	for _, ab := range scales {
		a := math.Float32frombits(ab)
		for _, off := range []int{0, 1, 3, 7} {
			for _, n := range []int{0, 1, 5, 8, 13, len(x) - off} {
				src := x[off : off+n]
				want := append([]float32(nil), src...)
				for i, v := range src {
					want[i] *= a
					if v != v && a != a {
						want[i] = math.Float32frombits(math.Float32bits(v) | 0x00400000)
					}
				}
				got := append([]float32(nil), src...)
				Scale(got, a)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("a %#08x off %d n %d elem %d: %#08x · a = %#08x, scalar loop %#08x", ab, off, n, i,
							math.Float32bits(src[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// AddBiasRows and BiasGradRows run Add per row; both must match the scalar
// loops they replaced bit for bit — every pair of special classes, NaN
// payloads on either side, at every column of rows whose width is not a
// multiple of 8 — with a sum of two NaNs pinned, as for Add, to the
// accumulating side's NaN, quieted.
func TestBiasRowsMatchScalarLoops(t *testing.T) {
	sum := func(acc, v float32) float32 {
		if acc != acc && v != v {
			return math.Float32frombits(math.Float32bits(acc) | 0x00400000)
		}
		return acc + v
	}
	check := func(x, bias []float32, m, n int) {
		t.Helper()
		want := append([]float32(nil), x...)
		for i := 0; i < m; i++ {
			for j, b := range bias {
				want[i*n+j] = sum(want[i*n+j], b)
			}
		}
		got := append([]float32(nil), x...)
		AddBiasRows(got, bias, m, n)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("AddBiasRows %d×%d elem %d: %#08x + %#08x = %#08x, scalar loop %#08x", m, n, i,
					math.Float32bits(x[i]), math.Float32bits(bias[i%n]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		wantB := append([]float32(nil), bias...)
		for i := 0; i < m; i++ {
			for j := range wantB {
				wantB[j] = sum(wantB[j], x[i*n+j])
			}
		}
		gotB := append([]float32(nil), bias...)
		BiasGradRows(gotB, x, m, n)
		for j := range wantB {
			if math.Float32bits(gotB[j]) != math.Float32bits(wantB[j]) {
				t.Fatalf("BiasGradRows %d×%d column %d: %#08x, scalar loop %#08x", m, n, j,
					math.Float32bits(gotB[j]), math.Float32bits(wantB[j]))
			}
		}
	}

	// Row i is the specials rotated by i, so each column meets every class
	// on both sides; one extra column makes the width 25.
	n := len(addSpecials) + 1
	spec := make([]float32, n)
	for j, v := range addSpecials {
		spec[j] = math.Float32frombits(v)
	}
	spec[n-1] = 3
	x := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x[i*n+j] = spec[(i+j)%n]
		}
	}
	check(x, spec, n, n)
	// One special row at a time, so a NaN meets finite sums.
	for i := 0; i < n; i++ {
		check(x[i*n:i*n+n], spec, 1, n)
	}

	r := rand.New(rand.NewSource(35))
	for _, n := range []int{1, 3, 7, 8, 13, 37} {
		for _, m := range []int{1, 2, 5} {
			x, bias := make([]float32, m*n), make([]float32, n)
			for i := range x {
				x[i] = math.Float32frombits(r.Uint32())
				if i%2 == 1 {
					x[i] = float32(r.NormFloat64())
				}
			}
			for j := range bias {
				bias[j] = float32(r.NormFloat64())
			}
			check(x, bias, m, n)
		}
	}
}
