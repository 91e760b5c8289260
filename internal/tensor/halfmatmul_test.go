package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// halfDecode (both the SSE path and the generic fallback) must reproduce
// the scalar reference decode bit for bit over every fp16 pattern, at every
// alignment and tail length.
func TestHalfDecodeAllBitPatterns(t *testing.T) {
	src := make(HalfBuffer, 0x10000)
	for i := range src {
		src[i] = Half(i)
	}
	dst := make([]float32, len(src))
	halfDecode(dst, src)
	for i, h := range src {
		if got, want := math.Float32bits(dst[i]), math.Float32bits(h.Float32()); got != want {
			t.Fatalf("halfDecode(%#04x) = %#08x, want %#08x", i, got, want)
		}
		if got, want := math.Float32bits(halfVal(h)), math.Float32bits(h.Float32()); got != want {
			t.Fatalf("halfVal(%#04x) = %#08x, want %#08x", i, got, want)
		}
	}
	// Odd lengths and offsets exercise the vector/scalar tail split.
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 100} {
		for _, off := range []int{0, 1, 5} {
			sub := src[off : off+n]
			out := make([]float32, n)
			halfDecode(out, sub)
			for i, h := range sub {
				if got, want := math.Float32bits(out[i]), math.Float32bits(h.Float32()); got != want {
					t.Fatalf("halfDecode len %d off %d elem %d (%#04x): got %#08x want %#08x",
						n, off, i, uint16(h), got, want)
				}
			}
		}
	}
}

// The fused round-and-store paths must match the separately pinned
// FromFloats/RoundHalf conversions bit for bit, and the overflow flag must
// agree with Overflowed on the encoded buffer.
func TestHalfFusedPathsMatchReference(t *testing.T) {
	probe := halfProbeValues()
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 100000; i++ {
		probe = append(probe, float32(math.Ldexp(r.Float64()*2-1, r.Intn(60)-30)))
	}
	for _, chunk := range [][]float32{probe, probe[:7], probe[len(probe)-1:]} {
		wantEnc := NewHalfBuffer(len(chunk))
		wantEnc.FromFloats(chunk)
		wantRounded := make([]float32, len(chunk))
		copy(wantRounded, chunk)
		RoundHalf(wantRounded)

		gotSrc := make([]float32, len(chunk))
		copy(gotSrc, chunk)
		gotEnc := NewHalfBuffer(len(chunk))
		overflow := gotEnc.FromFloatsRound(gotSrc)
		for i := range chunk {
			if gotEnc[i] != wantEnc[i] {
				t.Fatalf("FromFloatsRound enc(%v) = %#04x, want %#04x", chunk[i], gotEnc[i], wantEnc[i])
			}
			if got, want := math.Float32bits(gotSrc[i]), math.Float32bits(wantRounded[i]); got != want {
				t.Fatalf("FromFloatsRound rounded(%v) = %#08x, want %#08x", chunk[i], got, want)
			}
		}
		if overflow != wantEnc.Overflowed() {
			t.Fatalf("FromFloatsRound overflow = %v, Overflowed = %v", overflow, wantEnc.Overflowed())
		}

		gotChecked := make([]float32, len(chunk))
		copy(gotChecked, chunk)
		checked := RoundHalfCheck(gotChecked)
		for i := range chunk {
			if got, want := math.Float32bits(gotChecked[i]), math.Float32bits(wantRounded[i]); got != want {
				t.Fatalf("RoundHalfCheck(%v) = %#08x, want %#08x", chunk[i], got, want)
			}
		}
		if checked != wantEnc.Overflowed() {
			t.Fatalf("RoundHalfCheck overflow = %v, Overflowed = %v", checked, wantEnc.Overflowed())
		}
	}
}

// randHalf fills a HalfBuffer and its exact fp32 image with fp16-rounded
// random values.
func randHalf(r *rand.Rand, n int) (HalfBuffer, []float32) {
	f := make([]float32, n)
	for i := range f {
		f[i] = float32(r.NormFloat64())
	}
	h := NewHalfBuffer(n)
	h.FromFloatsRound(f)
	return h, f
}

// The half kernels on fp16 operands must be bitwise identical to the f32
// kernels on the decoded images of the same operands — the property that
// makes the fp16 compute path testable against the f32 goldens. Shapes
// cover the ov1/ov4 split (k < 4), axpy tails, odd rows, and sizes beyond
// the parallel threshold on both sides.
func TestHalfMatMulMatchesF32OnDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 2, 3}, {2, 3, 5}, {3, 4, 4}, {5, 7, 9}, {4, 8, 16},
		{7, 5, 3}, {16, 16, 16}, {13, 29, 17}, {64, 32, 48}, {96, 128, 64},
	}
	for _, s := range shapes {
		ha, fa := randHalf(r, s.m*s.k)
		hb, fb := randHalf(r, s.k*s.n)

		got := make([]float32, s.m*s.n)
		want := make([]float32, s.m*s.n)
		MatMulH(got, ha, hb, s.m, s.k, s.n)
		MatMul(want, fa, fb, s.m, s.k, s.n)
		if d := MaxDiff(got, want); d != 0 {
			t.Fatalf("MatMulH %dx%dx%d differs from f32 by %g", s.m, s.k, s.n, d)
		}

		// BT orientation: A[m×n] · B[k×n]ᵀ.
		ha2, fa2 := randHalf(r, s.m*s.n)
		hb2, fb2 := randHalf(r, s.k*s.n)
		gotBT := make([]float32, s.m*s.k)
		wantBT := make([]float32, s.m*s.k)
		MatMulBTH(gotBT, ha2, hb2, s.m, s.n, s.k)
		MatMulBT(wantBT, fa2, fb2, s.m, s.n, s.k)
		if d := MaxDiff(gotBT, wantBT); d != 0 {
			t.Fatalf("MatMulBTH %dx%dx%d differs from f32 by %g", s.m, s.n, s.k, d)
		}

		// AT orientation: A[m×k]ᵀ · B[m×n], accumulated.
		hbn, fbn := randHalf(r, s.m*s.n)
		seed := make([]float32, s.k*s.n)
		for i := range seed {
			seed[i] = float32(r.NormFloat64())
		}
		gotATA := append([]float32(nil), seed...)
		wantATA := append([]float32(nil), seed...)
		MatMulATAddH(gotATA, ha, hbn, s.m, s.k, s.n)
		MatMulATAdd(wantATA, fa, fbn, s.m, s.k, s.n)
		if d := MaxDiff(gotATA, wantATA); d != 0 {
			t.Fatalf("MatMulATAddH %dx%dx%d differs from f32 by %g", s.m, s.k, s.n, d)
		}
	}
}

// The parallel and serial half-kernel paths must agree bitwise, like their
// f32 counterparts.
func TestHalfMatMulParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, k, n := 96, 64, 80 // above parallelThreshold
	ha, _ := randHalf(r, m*k)
	hb, _ := randHalf(r, k*n)
	par := make([]float32, m*n)
	MatMulH(par, ha, hb, m, k, n)

	prev := runtime.GOMAXPROCS(1)
	ser := make([]float32, m*n)
	MatMulH(ser, ha, hb, m, k, n)
	runtime.GOMAXPROCS(prev)

	if d := MaxDiff(par, ser); d != 0 {
		t.Fatalf("parallel and serial MatMulH differ by %g", d)
	}
}

// Both transposes must equal the definition dst[c·rows+r] = src[r·cols+c]
// (decoded, for the half one) at every shape around their tile widths — the
// four-row groups, the 16-row tile and the 64-column decode tile all leave
// tails when rows and cols are not multiples of 4, 16 and 64. The source
// covers every fp16 bit pattern, so "moves values, cannot change bits"
// includes NaN payloads and subnormals.
func TestTransposesMatchDefinition(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 130}
	for _, rows := range dims {
		for _, cols := range dims {
			src := make(HalfBuffer, rows*cols)
			for i := range src {
				src[i] = Half(i*2659 + rows*31 + cols)
			}
			srcF := src.Floats()
			gotH := make([]float32, rows*cols)
			transposeHalfInto(gotH, src, rows, cols)
			gotF := make([]float32, rows*cols)
			transposeInto(gotF, srcF, rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					want := math.Float32bits(src[r*cols+c].Float32())
					if got := math.Float32bits(gotH[c*rows+r]); got != want {
						t.Fatalf("transposeHalfInto %dx%d: dst[%d,%d] = %#08x, want %#08x", rows, cols, c, r, got, want)
					}
					if got := math.Float32bits(gotF[c*rows+r]); got != want {
						t.Fatalf("transposeInto %dx%d: dst[%d,%d] = %#08x, want %#08x", rows, cols, c, r, got, want)
					}
				}
			}
		}
	}
}
