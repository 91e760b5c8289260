package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/testutil"
)

// naive reference implementations used to validate the blocked kernels.

func refMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randSlice(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

// refTranspose returns Aᵀ for A[rows×cols] (test-local; the library's fused
// Aᵀ·B kernels made a standalone Transpose unnecessary).
func refTranspose(a []float32, rows, cols int) []float32 {
	t := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = a[i*cols+j]
		}
	}
	return t
}

func TestMatMulAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 65}, {64, 128, 32}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c := make([]float32, m*n)
		MatMul(c, a, b, m, k, n)
		want := refMatMul(a, b, m, k, n)
		if d := testutil.MaxDiff(c, want); d > 1e-4 {
			t.Errorf("MatMul %v: max diff %g", dims, d)
		}
	}
}

func TestMatMulBTAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{2, 3, 4}, {7, 5, 9}, {33, 17, 65}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(r, m*n) // A[m×n]
		b := randSlice(r, k*n) // B[k×n]
		c := make([]float32, m*k)
		MatMulBT(c, a, b, m, n, k)
		// reference: C = A · Bᵀ
		bt := refTranspose(b, k, n)
		want := refMatMul(a, bt, m, n, k)
		if d := testutil.MaxDiff(c, want); d > 1e-4 {
			t.Errorf("MatMulBT %v: max diff %g", dims, d)
		}
	}
}

// MatMulBT(A, B) is MatMul(A, Bᵀ) to the bit at every problem size,
// including the sign of an exact zero: row 1 of A is −0 against a positive
// B, so all its products are −0, and the fold that starts from the first
// product keeps that sign where one starting from +0 would not. Shapes sit
// on both sides of parallelThreshold; the pool splits the larger ones.
func TestMatMulBTMatchesMatMulOnTranspose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rand.New(rand.NewSource(5))
	negZero := float32(math.Copysign(0, -1))
	for _, dims := range [][3]int{{2, 3, 4}, {5, 16, 24}, {8, 32, 8}, {32, 32, 32}, {9, 64, 128}, {37, 64, 128}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(r, m*n) // A[m×n]
		for p := 0; p < n; p++ {
			a[n+p] = negZero
		}
		b := randSlice(r, k*n) // B[k×n]
		for i, v := range b {
			b[i] = float32(math.Abs(float64(v)))
		}
		got, want := make([]float32, m*k), make([]float32, m*k)
		MatMulBT(got, a, b, m, n, k)
		MatMul(want, a, refTranspose(b, k, n), m, n, k)
		bitsEqual(t, fmt.Sprintf("MatMulBT vs MatMul on Bᵀ %v", dims), got, want)
		if math.Float32bits(got[k]) != math.Float32bits(negZero) {
			t.Fatalf("%v: all −0 products summed to %v (%#08x), want −0", dims, got[k], math.Float32bits(got[k]))
		}
	}
}

// Where A and B both hold a NaN, the product's payload is B's: x86 returns
// the first source's NaN, and every path multiplies B's value by A's. The
// Cᵀ fold keeps that by putting the coefficient first (gemmTile8), so it
// must agree with the transpose path, and with B's payload, on fp32 and on
// half operands. A and B carry NaNs with different payloads at step 1 of
// row 0, where C[0][0] adds NaN_B·NaN_A to a finite sum, and at step 0 of
// row 1, where C[1][1] starts from that product; C[0][2] adds b·NaN_A.
func TestMatMulBTNaNPayloadFromB(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const nanA, nanB = 0x7fc0a000, 0xffc16000 // the images of halves 0x7e05, 0xfe0b
	for _, dims := range [][3]int{{8, 512, 128}, {3, 128, 384}, {64, 128, 128}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randSlice(r, m*n), randSlice(r, k*n)
		ha, hb := NewHalfBuffer(m*n), NewHalfBuffer(k*n)
		ha.FromFloats(a)
		hb.FromFloats(b)
		for _, i := range []int{1, n} { // row 0 step 1, row 1 step 0
			a[i], b[i] = math.Float32frombits(nanA), math.Float32frombits(nanB)
			ha[i], hb[i] = 0x7e05, 0xfe0b
		}
		fa, fb := ha.Floats(), hb.Floats()
		for name, got := range map[string][]float32{"fp32": make([]float32, m*k), "half": make([]float32, m*k)} {
			want := make([]float32, m*k)
			if name == "fp32" {
				MatMulBT(got, a, b, m, n, k)
				MatMul(want, a, refTranspose(b, k, n), m, n, k)
			} else {
				MatMulBT(got, ha, hb, m, n, k)
				MatMul(want, fa, refTranspose(fb, k, n), m, n, k)
			}
			bitsEqual(t, fmt.Sprintf("%s MatMulBT vs transpose path %v", name, dims), got, want)
			for _, c := range []struct {
				i    int
				want uint32
			}{{0, nanB}, {k + 1, nanB}, {2, nanA}} {
				if g := math.Float32bits(got[c.i]); g != c.want {
					t.Fatalf("%s %v: C[%d][%d] = %#08x, want %#08x", name, dims, c.i/k, c.i%k, g, c.want)
				}
			}
		}
	}
}

func TestMatMulATAddAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{2, 3, 4}, {7, 5, 9}, {33, 17, 65}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randSlice(r, m*k) // A[m×k]
		b := randSlice(r, m*n) // B[m×n]
		c := make([]float32, k*n)
		initial := randSlice(r, k*n)
		copy(c, initial)
		MatMulATAdd(c, a, b, m, k, n)
		at := refTranspose(a, m, k)
		want := refMatMul(at, b, k, m, n)
		Add(want, initial)
		if d := testutil.MaxDiff(c, want); d > 1e-4 {
			t.Errorf("MatMulATAdd %v: max diff %g", dims, d)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 8
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	r := rand.New(rand.NewSource(4))
	a := randSlice(r, n*n)
	c := make([]float32, n*n)
	MatMul(c, a, id, n, n, n)
	if d := testutil.MaxDiff(c, a); d != 0 {
		t.Errorf("A·I differs from A by %g", d)
	}
	MatMul(c, id, a, n, n, n)
	if d := testutil.MaxDiff(c, a); d != 0 {
		t.Errorf("I·A differs from A by %g", d)
	}
}

func TestAddBiasAndBiasGrad(t *testing.T) {
	m, n := 3, 4
	x := make([]float32, m*n)
	bias := []float32{1, 2, 3, 4}
	AddBiasRows(x, bias, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if x[i*n+j] != bias[j] {
				t.Fatalf("AddBiasRows wrong at (%d,%d)", i, j)
			}
		}
	}
	dBias := make([]float32, n)
	BiasGradRows(dBias, x, m, n)
	for j := range bias {
		if dBias[j] != float32(m)*bias[j] {
			t.Errorf("BiasGradRows[%d] = %v, want %v", j, dBias[j], float32(m)*bias[j])
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	MatMul(make([]float32, 4), make([]float32, 4), make([]float32, 5), 2, 2, 2)
}

// FuzzMatMulLanes takes the shape from the first three bytes and reads the
// rest as operand bits — float32 words for the f32 operands, binary16 words
// for the half ones, any pattern: NaN payloads, ±Inf, ±0, subnormals. It
// checks all four orientations on both operand types on the ZMM tier and
// on the YMM tier against the same call on the scalar reference, bit for
// bit. Shapes reach past
// parallelThreshold, so the pool splits run too, and few-row MatMulBT
// shapes, where the lanes fold Cᵀ and the scalar run transposes B.
func FuzzMatMulLanes(f *testing.F) {
	word := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(append([]byte{6, 5, 32}, word(0x3f800000, 0xbfc00000, 0x40490fdb, 0x3e99999a)...))
	f.Add(append([]byte{9, 3, 47}, word(0x7fc00123, 0xff800000, 0x80000000, 0x00000001, 0x7f8000ff, 0x3c007e01)...))
	f.Add(append([]byte{40, 40, 70}, word(0x3f000000, 0xc0000000, 0x7c01fc00, 0x00400000)...))
	f.Add(append([]byte{7, 0x80 | 47, 0x80 | 73}, word(0x3f800000, 0x7fc0beef, 0xbe000000, 0x7e017c02)...))
	f.Add(append([]byte{15, 0x80 | 6, 0x80 | 8}, word(0x40000000, 0xffc00001, 0x3d000000, 0x80000001)...))
	// The 8×32 tiles: one full block at k = 1 over ±0 and ±Inf; two blocks
	// by two panels over NaN payloads; 8 + 4 rows by 32 + 16 columns with
	// −0 products; and 16 + 4 rows by 32 + 16 + 15 columns at k = 264, past
	// a half A's first 256-step panel, over fp16 NaN payloads, ±Inf and ±0.
	f.Add(append([]byte{7, 1, 31}, word(0x3f800000, 0x80000000, 0x7f800000, 0xff800000, 0x00000000)...))
	f.Add(append([]byte{15, 5, 63}, word(0x7fc00123, 0xffc0beef, 0x3e99999a, 0xc0400000, 0x7f800001)...))
	f.Add(append([]byte{11, 12, 47}, word(0x80000000, 0x3f800000, 0x80000000, 0xbf800000)...))
	f.Add(append([]byte{19, 0x80 | 24, 62}, word(0x7e017c00, 0xfc008000, 0x3c00bc00, 0x7fa00001, 0x0000fe03)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		// A set top bit in the k or n byte stretches it ×11 or ×7, up to
		// 517 and 560, so few-row shapes reach MatMulBT's Cᵀ fold against
		// wide weights and its 256-step panels.
		m, k, n := 1+int(in[0])%48, int(in[1]&0x7f)%48, 1+int(in[2]&0x7f)%80
		if in[1]&0x80 != 0 {
			k *= 11
		}
		if in[2]&0x80 != 0 {
			n *= 7
		}
		in = in[3:]
		f32 := func(size, salt int) []float32 {
			s := make([]float32, size)
			if w := len(in) / 4; w > 0 {
				for i := range s {
					s[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*((i+salt)%w):]))
				}
			}
			return s
		}
		f16 := func(size, salt int) HalfBuffer {
			s := make(HalfBuffer, size)
			if w := len(in) / 2; w > 0 {
				for i := range s {
					s[i] = Half(binary.LittleEndian.Uint16(in[2*((i+salt)%w):]))
				}
			}
			return s
		}
		a, b, bt, bm, c0 := f32(m*k, 0), f32(k*n, 1), f32(n*k, 2), f32(m*n, 3), f32(k*n, 4)
		ha, hb, hbt, hbm := f16(m*k, 5), f16(k*n, 6), f16(n*k, 7), f16(m*n, 8)
		run := func() map[string][]float32 {
			out := allOrientations(a, b, bt, bm, c0, m, k, n)
			for name, c := range allOrientations(ha, hb, hbt, hbm, c0, m, k, n) {
				out["half "+name] = c
			}
			return out
		}
		var want map[string][]float32
		scalarRef(func() { want = run() })
		for _, tier := range tiers[:2] {
			t.Run(tier, func(t *testing.T) {
				var got map[string][]float32
				onTier(t, tier, func() { got = run() })
				for name, c := range got {
					for i, g := range c {
						if gb, wb := math.Float32bits(g), math.Float32bits(want[name][i]); gb != wb {
							t.Fatalf("%s %dx%dx%d [%d]: %s %#08x, scalar %#08x", name, m, k, n, i, tier, gb, wb)
						}
					}
				}
			})
		}
	})
}
