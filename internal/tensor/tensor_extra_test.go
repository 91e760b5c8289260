package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestGELUKnownValues(t *testing.T) {
	// GELU(0)=0, GELU is ≈x for large positive x, ≈0 for large negative x,
	// and GELU(1) ≈ 0.8412; g′(0) = 0.5, g′(1) ≈ 1.0830, g′(±6) ≈ 1 and 0.
	xs := []float32{0, 1, 6, -6}
	y, gp := make([]float32, len(xs)), make([]float32, len(xs))
	GELU(y, gp, xs)
	for i, want := range []float64{0.5, 1.0830, 1, 0} {
		if math.Abs(float64(gp[i])-want) > 1e-3 {
			t.Errorf("GELU′(%v) = %v, want ≈%v", xs[i], gp[i], want)
		}
	}

	// GELUBackward is the sum 0 + dy·g′: every zero product comes out +0,
	// a NaN in dy keeps its payload (quieted), and a finite product is the
	// float32 product. In place over dy too.
	const negZero, qNaN, sNaN = 0x80000000, 0x7fc12345, 0xff800001
	for _, c := range []struct{ dy, gp, want uint32 }{
		{negZero, 0x3f800000, 0},             // −0 · 1
		{0x3f800000, negZero, 0},             // 1 · −0
		{0xbf800000, 0, 0},                   // −1 · +0
		{0x80000001, 0x3e800000, 0},          // −tiny · 0.25 underflows to −0
		{qNaN, 0x3f000000, qNaN},             // dy's payload
		{sNaN, 0xbf000000, sNaN | 0x400000},  // quieted
		{0xc0000000, 0x3fc00000, 0xc0400000}, // −2 · 1.5
	} {
		dy, gp := []float32{math.Float32frombits(c.dy)}, []float32{math.Float32frombits(c.gp)}
		dx := []float32{123}
		GELUBackward(dx, dy, gp)
		GELUBackward(dy, dy, gp)
		for _, got := range []float32{dx[0], dy[0]} {
			if math.Float32bits(got) != c.want {
				t.Errorf("GELUBackward(dy %#08x, g′ %#08x) = %#08x, want %#08x", c.dy, c.gp, math.Float32bits(got), c.want)
			}
		}
	}
	if y[0] != 0 {
		t.Errorf("GELU(0) = %v", y[0])
	}
	if math.Abs(float64(y[1])-0.8412) > 1e-3 {
		t.Errorf("GELU(1) = %v, want ≈0.8412", y[1])
	}
	if math.Abs(float64(y[2]-6)) > 1e-3 {
		t.Errorf("GELU(6) = %v, want ≈6", y[2])
	}
	if math.Abs(float64(y[3])) > 1e-3 {
		t.Errorf("GELU(-6) = %v, want ≈0", y[3])
	}
}

// Property: softmax of extreme-but-finite logits stays finite and
// normalized (the max-shift at work).
func TestSoftmaxExtremeLogits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64()) * 1e4
		}
		y := make([]float32, n)
		softmaxRows(y, x, 1, n)
		if testutil.HasNaNOrInf(y) {
			return false
		}
		s := testutil.Sum(y)
		return math.Abs(s-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: (A)(B1+B2) == AB1 + AB2
// within float tolerance.
func TestMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 3+r.Intn(5), 3+r.Intn(5), 3+r.Intn(5)
		a := randSlice(r, m*k)
		b1 := randSlice(r, k*n)
		b2 := randSlice(r, k*n)
		sum := make([]float32, k*n)
		copy(sum, b1)
		Add(sum, b2)
		lhs := make([]float32, m*n)
		MatMul(lhs, a, sum, m, k, n)
		r1 := make([]float32, m*n)
		r2 := make([]float32, m*n)
		MatMul(r1, a, b1, m, k, n)
		MatMul(r2, a, b2, m, k, n)
		Add(r1, r2)
		return testutil.MaxDiff(lhs, r1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Large parallel matmul (crosses the goroutine fan-out threshold) must
// match the small-path result.
func TestParallelMatMulMatchesSerialPath(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m, k, n := 128, 96, 80 // m*k*n > parallelThreshold
	a, b := randSlice(r, m*k), randSlice(r, k*n)
	c := make([]float32, m*n)
	MatMul(c, a, b, m, k, n)
	want := refMatMul(a, b, m, k, n)
	if d := testutil.MaxDiff(c, want); d > 1e-3 {
		t.Errorf("parallel matmul differs from reference by %g", d)
	}
}

func TestLayerNormConstantRow(t *testing.T) {
	// A constant row has zero variance; eps must keep the output finite.
	m, n := 1, 8
	x := make([]float32, n)
	Fill(x, 3)
	gamma := make([]float32, n)
	Fill(gamma, 1)
	beta := make([]float32, n)
	y := make([]float32, n)
	xhat := make([]float32, n)
	invStd := make([]float32, m)
	LayerNorm(y, xhat, invStd, x, gamma, beta, m, n, 1e-5)
	if testutil.HasNaNOrInf(y) {
		t.Error("LayerNorm of constant row produced non-finite output")
	}
	for _, v := range y {
		if v != 0 {
			t.Errorf("constant row should normalize to 0, got %v", v)
		}
	}
}

func TestCrossEntropyTargetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	probs := make([]float32, 4)
	CrossEntropy(probs, make([]float32, 4), []int{7}, 1, 4)
}

func TestMaxDiffAndCopyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MaxDiff": func() { testutil.MaxDiff(make([]float32, 2), make([]float32, 3)) },
		"Copy":    func() { Copy(make([]float32, 2), make([]float32, 3)) },
		"Add":     func() { Add(make([]float32, 2), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float32{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2(3,4) = %v", got)
	}
	if Norm2(nil) != 0 {
		t.Error("Norm2(nil) != 0")
	}
}
