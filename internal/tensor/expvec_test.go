package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The lane kernels and the kernels built on them against the scalar
// reference, bit for bit. Where the CPU lacks AVX2/FMA/F16C the vector path
// never runs and each test says so.

// scalarRef runs f with the lane kernels off: one math.Tanh or math.Exp
// call per element, and the matmul fold on the axpy sweep.
func scalarRef(f func()) {
	saved, savedZ := useLanes, useZMM
	useLanes, useZMM = false, false
	defer func() { useLanes, useZMM = saved, savedZ }()
	f()
}

// ymmRef runs f with the 512-bit tier off, so the matmul fold's blocks run
// on the 4×16 YMM tiles.
func ymmRef(f func()) {
	saved := useZMM
	useZMM = false
	defer func() { useZMM = saved }()
	f()
}

// foldTiers are the ways the matmul fold runs: the 8×32 ZMM tiles, the
// 4×16 YMM tiles and the scalar reference.
var foldTiers = []string{"zmm", "ymm", "scalar"}

// onTier runs f with the matmul fold on the named tier, or skips t, giving
// the reason, where this CPU or OS cannot run that tier.
func onTier(t *testing.T, tier string, f func()) {
	t.Helper()
	switch tier {
	case "zmm":
		if !useZMM {
			t.Skip("CPU or OS lacks AVX-512F with opmask and ZMM state: the 512-bit tier never runs here")
		}
		f()
	case "ymm":
		if !useLanes {
			t.Skip("CPU lacks AVX2/FMA/F16C: the YMM tier never runs here")
		}
		ymmRef(f)
	default:
		scalarRef(f)
	}
}

func logScalarOnly(t *testing.T) {
	if !useLanes {
		t.Log("CPU lacks AVX2/FMA/F16C: only the scalar path was checked")
	}
}

// transcendentalEdges are the lane kernels' branch points and fallbacks:
// signed zeros, infinities, NaN, subnormals, tanh's 0.625 and 0.5·MAXLOG,
// exp's overflow threshold, the start and end of its denormal results, the
// causal mask, and the float64 neighbours of each.
func transcendentalEdges() []float64 {
	base := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // negative NaN, payload
		5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
		0.625, -0.625, 44.014845965556525, -44.014845965556525,
		709.78, 7.09782712893384e+02, -708.39, -708.3964185322641, -745.13, -745.1332191019411,
		-1e9, 1e9, -1.5e9, 1, -1, 1e-8,
	}
	var vs []float64
	for _, v := range base {
		vs = append(vs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	return vs
}

func TestLaneKernelsMatchMath(t *testing.T) {
	logScalarOnly(t)
	in := transcendentalEdges()
	r := rand.New(rand.NewSource(27))
	for len(in) < 1<<18 {
		in = append(in, r.Float64()*1600-800)
	}
	// The denormal-result band of exp, densely.
	for x := -750.0; x < -700; x += 0.0137 {
		in = append(in, x)
	}
	var x, e, th [laneChunk]float64
	for lo := 0; lo < len(in); lo += laneChunk {
		n := copy(x[:], in[lo:])
		expChunk(&e, &x, n)
		if useLanes { // tanhLanes itself needs AVX2 on amd64
			tanhLanes(th[:(n+3)&^3], x[:])
		} else {
			for i, v := range x[:n] {
				th[i] = math.Tanh(v)
			}
		}
		for i, v := range x[:n] {
			if got, want := math.Float64bits(e[i]), math.Float64bits(math.Exp(v)); got != want {
				t.Fatalf("exp(%v = %#016x) = %#016x, want %#016x", v, math.Float64bits(v), got, want)
			}
			if got, want := math.Float64bits(th[i]), math.Float64bits(math.Tanh(v)); got != want {
				t.Fatalf("tanh(%v = %#016x) = %#016x, want %#016x", v, math.Float64bits(v), got, want)
			}
		}
	}
}

// checkKernelsMatchScalar runs GELU, GELUBackward and softmaxRows over x
// split m×n, live and scalar, and fails on any bit that differs. GELU runs
// twice, into its own g′ and in place over a copy of x, and GELUBackward
// twice, into its own dx and in place over a copy of dy.
func checkKernelsMatchScalar(t *testing.T, x []float32, m, n int) {
	t.Helper()
	dy := make([]float32, len(x))
	for i := range x {
		dy[i] = x[len(x)-1-i]
	}
	// Each in-place result must equal the scalar out-of-place one (ref).
	names := [...]string{"GELU y", "GELU g′", "GELU y, g′ over x", "GELU g′ over x",
		"GELUBackward", "GELUBackward over dy", "softmaxRows"}
	ref := [len(names)]int{0, 1, 0, 1, 4, 4, 6}
	run := func() (out [len(names)][]float32) {
		y, gp := make([]float32, len(x)), make([]float32, len(x))
		GELU(y, gp, x)
		yIn, gpIn := make([]float32, len(x)), append([]float32(nil), x...)
		GELU(yIn, gpIn, gpIn)
		dx := make([]float32, len(x))
		GELUBackward(dx, dy, gp)
		dxIn := append([]float32(nil), dy...)
		GELUBackward(dxIn, dxIn, gp)
		p := make([]float32, m*n)
		softmaxRows(p, x[:m*n], m, n)
		return [...][]float32{y, gp, yIn, gpIn, dx, dxIn, p}
	}
	var want [len(names)][]float32
	scalarRef(func() { want = run() })
	got := run()
	for k, name := range names {
		for i, v := range want[ref[k]] {
			if g, w := math.Float32bits(got[k][i]), math.Float32bits(v); g != w {
				t.Fatalf("%s [%d] (x = %#08x, len %d, %d×%d): %#08x, want %#08x",
					name, i, math.Float32bits(x[i]), len(x), m, n, g, w)
			}
		}
	}
}

func TestTranscendentalKernelsMatchScalar(t *testing.T) {
	logScalarOnly(t)
	// Every 251st float32 bit pattern, in rows of 257.
	const stride, rowLen = 251, 257
	sweep := make([]float32, 0, 1<<15)
	flush := func() {
		m := len(sweep) / rowLen
		checkKernelsMatchScalar(t, sweep, m, rowLen)
		sweep = sweep[:0]
	}
	for u := uint64(0); u < 1<<32; u += stride {
		sweep = append(sweep, math.Float32frombits(uint32(u)))
		if len(sweep) == cap(sweep) {
			flush()
		}
	}
	flush()

	// Every length around the chunk and lane boundaries, as one row, with
	// and without the causal mask in it.
	r := rand.New(rand.NewSource(28))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255, 256, 257} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64() * 4)
		}
		checkKernelsMatchScalar(t, x, min(n, 1), n)
		for i := n / 2; i < n; i++ {
			x[i] = -1e9
		}
		checkKernelsMatchScalar(t, x, min(n, 1), n)
	}
}

// geluRef is the tanh GELU and its derivative written out once more,
// sharing no code with GELU: one math.Tanh per element, each expression in
// Go's operand order.
func geluRef(v float32) (y, gp float32) {
	f := float64(v)
	th := math.Tanh(0.7978845608028654 * (f + 0.044715*f*f*f))
	du := 0.7978845608028654 * (1 + 3*0.044715*f*f)
	return float32(0.5 * f * (1 + th)), float32(0.5*(1+th) + 0.5*f*(1-th*th)*du)
}

// GELU against the independent reference, bit for bit, with the lanes on
// and off: every 251st float32 bit pattern, in calls whose lengths cycle
// through 1–9 (the four-lane body and each tail length), every other call
// writing g′ over x; with the lanes on, also as one call over x.
// checkKernelsMatchScalar compares the two tiers with each other; this
// catches both drifting together.
func TestGELUMatchesReference(t *testing.T) {
	logScalarOnly(t)
	var x []float32
	for u := uint64(0); u < 1<<32; u += 251 {
		x = append(x, math.Float32frombits(uint32(u)))
	}
	wantY, wantG := make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		wantY[i], wantG[i] = geluRef(v)
	}
	y, gp := make([]float32, len(x)), make([]float32, len(x))
	check := func(form string) {
		for i := range x {
			if math.Float32bits(y[i]) != math.Float32bits(wantY[i]) || math.Float32bits(gp[i]) != math.Float32bits(wantG[i]) {
				t.Fatalf("%s: GELU(%#08x) = %#08x, g′ %#08x; reference %#08x, %#08x", form,
					math.Float32bits(x[i]), math.Float32bits(y[i]), math.Float32bits(gp[i]),
					math.Float32bits(wantY[i]), math.Float32bits(wantG[i]))
			}
		}
	}
	lengths := func() {
		copy(gp, x)
		for lo, n, k := 0, 1, 0; lo < len(x); lo, n, k = lo+n, n%9+1, k+1 {
			hi := min(lo+n, len(x))
			in := x[lo:hi]
			if k%2 == 1 {
				in = gp[lo:hi] // still x here
			}
			GELU(y[lo:hi], gp[lo:hi], in)
		}
	}
	lengths()
	check("lengths 1–9")
	copy(gp, x)
	GELU(y, gp, gp)
	check("one call over x")
	scalarRef(lengths)
	check("scalar, lengths 1–9")
}

// The stack chunks stay on the stack: no kernel allocates, on either path.
func TestTranscendentalKernelsAllocateNothing(t *testing.T) {
	const batch, seq, heads, dh = 1, 70, 1, 4
	r := rand.New(rand.NewSource(29))
	x := randSlice(r, 300)
	y, gp, dx := make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
	qkv := randSlice(r, batch*seq*3*heads*dh)
	ctx, probs := make([]float32, batch*seq*heads*dh), make([]float32, batch*heads*seq*seq)
	scratch := make([]float32, AttentionScratchLen(seq, dh))
	kernels := func() {
		GELU(y, gp, x)
		GELUBackward(dx, y, gp)
		softmaxRows(y, x, 3, 100)
		CausalAttention(ctx, probs, qkv, nil, batch, seq, heads, dh, scratch)
	}
	for _, lanes := range []bool{true, false} {
		run := kernels
		if !lanes {
			run = func() { scalarRef(kernels) }
		}
		if a := testing.AllocsPerRun(10, run); a != 0 {
			t.Errorf("lanes=%v: %v allocs per run, want 0", lanes && useLanes, a)
		}
	}
}

// FuzzTranscendentals reads arbitrary bytes as float32 lanes (any bit
// pattern) and checks the live GELU, GELUBackward and softmaxRows against
// the scalar reference bit for bit — GELU and GELUBackward also in place —
// the softmax over the lanes split m×n.
func FuzzTranscendentals(f *testing.F) {
	seed := func(vs ...float32) []byte {
		b := make([]byte, 1+4*len(vs))
		b[0] = 2
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[1+4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(0, -1, 2.5, -1e9, 1e9, 0.3))
	f.Add(seed(float32(math.NaN()), float32(math.Inf(-1)), 1e-45, -0.625, 44, 88.7, -103))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		x := make([]float32, (len(b)-1)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[1+4*i:]))
		}
		m := 0
		if len(x) > 0 {
			m = 1 + int(b[0])%len(x)
		}
		n := 0
		if m > 0 {
			n = len(x) / m
		}
		checkKernelsMatchScalar(t, x, m, n)
	})
}
