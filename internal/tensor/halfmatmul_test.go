package tensor

import (
	"fmt"
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
		if got, want := math.Float32bits(dst[i]), math.Float32bits(h.float32()); got != want {
			t.Fatalf("halfDecode(%#04x) = %#08x, want %#08x", i, got, want)
		}
		if got, want := math.Float32bits(halfVal(h)), math.Float32bits(h.float32()); got != want {
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
				if got, want := math.Float32bits(out[i]), math.Float32bits(h.float32()); got != want {
					t.Fatalf("halfDecode len %d off %d elem %d (%#04x): got %#08x want %#08x",
						n, off, i, uint16(h), got, want)
				}
			}
		}
	}
}

// The fused round-and-store paths must match the separately pinned
// FromFloats/roundHalf conversions bit for bit, and the overflow flag must
// agree with overflowed on the encoded buffer.
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
		roundHalf(wantRounded)

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
		if overflow != overflowed(wantEnc) {
			t.Fatalf("FromFloatsRound overflow = %v, overflowed = %v", overflow, overflowed(wantEnc))
		}

		gotChecked := make([]float32, len(chunk))
		copy(gotChecked, chunk)
		checked := RoundHalfCheck(gotChecked)
		for i := range chunk {
			if got, want := math.Float32bits(gotChecked[i]), math.Float32bits(wantRounded[i]); got != want {
				t.Fatalf("RoundHalfCheck(%v) = %#08x, want %#08x", chunk[i], got, want)
			}
		}
		if checked != overflowed(wantEnc) {
			t.Fatalf("RoundHalfCheck overflow = %v, overflowed = %v", checked, overflowed(wantEnc))
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

// allOrientations runs the four matmuls on operands of one type — A[m×k]
// against B[k×n] (MatMul), bt[n×k] (MatMulBT) and bm[m×n] (matMulAT, and
// MatMulATAdd onto c0) — and returns their outputs by name.
func allOrientations[S Operand](a, b, bt, bm S, c0 []float32, m, k, n int) map[string][]float32 {
	out := map[string][]float32{
		"MatMul": make([]float32, m*n), "MatMulBT": make([]float32, m*n),
		"matMulAT": make([]float32, k*n), "MatMulATAdd": append([]float32(nil), c0...),
	}
	MatMul(out["MatMul"], a, b, m, k, n)
	MatMulBT(out["MatMulBT"], a, bt, m, k, n)
	matMulAT(out["matMulAT"], a, bm, m, k, n, false)
	MatMulATAdd(out["MatMulATAdd"], a, bm, m, k, n)
	return out
}

// Every orientation on fp16 operands must be bitwise identical to the same
// orientation on the decoded images of those operands — the property that
// makes the fp16 compute path testable against the f32 goldens — over the
// whole kernel shape matrix: zero sizes, k = 0, matvecs, k = 1, the tile's
// tails, and sizes on both sides of the parallel threshold.
func TestHalfMatMulMatchesF32OnDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, dims := range kernelShapes {
		m, k, n := dims[0], dims[1], dims[2]
		ha, fa := randHalf(r, m*k)
		hb, fb := randHalf(r, k*n)
		hbt, fbt := randHalf(r, n*k)
		hbm, fbm := randHalf(r, m*n)
		c0 := randSlice(r, k*n)
		got := allOrientations(ha, hb, hbt, hbm, c0, m, k, n)
		want := allOrientations(fa, fb, fbt, fbm, c0, m, k, n)
		for name, w := range want {
			bitsEqual(t, fmt.Sprintf("half %s %v", name, dims), got[name], w)
		}
	}
}

// The parallel and serial paths must agree bitwise on half operands, like
// their f32 counterparts.
func TestHalfMatMulParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, k, n := 96, 64, 80 // above parallelThreshold
	ha, _ := randHalf(r, m*k)
	hb, _ := randHalf(r, k*n)
	hbt, _ := randHalf(r, n*k)
	hbm, _ := randHalf(r, m*n)
	c0 := randSlice(r, k*n)
	prev := runtime.GOMAXPROCS(4)
	par := allOrientations(ha, hb, hbt, hbm, c0, m, k, n)
	runtime.GOMAXPROCS(1)
	ser := allOrientations(ha, hb, hbt, hbm, c0, m, k, n)
	runtime.GOMAXPROCS(prev)

	for name, s := range ser {
		bitsEqual(t, "parallel vs serial half "+name, par[name], s)
	}
}

// Both transposes must equal the definition dst[c·ldd+r] = src[r·lds+c]
// (decoded, for the half one) at every shape around their tile widths — the
// four-row groups, the 16-row tile and the 64-column decode tile all leave
// tails when rows and cols are not multiples of 4, 16 and 64 — with dense
// rows and with MatMulBT's padded ones (ldd rounded up to 8, and lds wider
// than cols for the fp32 one). The source covers every fp16 bit pattern, so
// "moves values, cannot change bits" includes NaN payloads and subnormals.
func TestTransposesMatchDefinition(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 130}
	for _, rows := range dims {
		for _, cols := range dims {
			src := make(HalfBuffer, rows*cols)
			for i := range src {
				src[i] = Half(i*2659 + rows*31 + cols)
			}
			srcF := src.Floats()
			for _, pad := range []bool{false, true} {
				ldd, lds := rows, cols
				if pad {
					ldd, lds = (rows+7)&^7, cols+3
				}
				wide := make([]float32, rows*lds)
				for r := 0; r < rows; r++ {
					copy(wide[r*lds:], srcF[r*cols:(r+1)*cols])
				}
				gotH := make([]float32, cols*ldd)
				transposeHalfInto(gotH, src, rows, cols, ldd)
				gotF := make([]float32, cols*ldd)
				transposeInto(gotF, wide, rows, cols, lds, ldd)
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						want := math.Float32bits(src[r*cols+c].float32())
						if got := math.Float32bits(gotH[c*ldd+r]); got != want {
							t.Fatalf("transposeHalfInto %dx%d ldd %d: dst[%d,%d] = %#08x, want %#08x", rows, cols, ldd, c, r, got, want)
						}
						if got := math.Float32bits(gotF[c*ldd+r]); got != want {
							t.Fatalf("transposeInto %dx%d lds %d ldd %d: dst[%d,%d] = %#08x, want %#08x", rows, cols, lds, ldd, c, r, got, want)
						}
					}
				}
			}
		}
	}
}
