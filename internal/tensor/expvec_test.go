package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The lane kernels and the kernels built on them against the scalar
// reference, bit for bit, on each tier this CPU runs. Where it lacks a
// tier, the test for that tier is skipped and says why.

// scalarRef runs f with the lane kernels off: one math.Tanh or math.Exp
// call per element, and the matmul fold on the axpy sweep.
func scalarRef(f func()) {
	saved, savedZ := useLanes, useZMM
	useLanes, useZMM = false, false
	defer func() { useLanes, useZMM = saved, savedZ }()
	f()
}

// ymmRef runs f with the 512-bit tier off: the matmul fold's blocks on the
// 4×16 YMM tiles, exp and GELU on the four-lane kernels.
func ymmRef(f func()) {
	saved := useZMM
	useZMM = false
	defer func() { useZMM = saved }()
	f()
}

// tiers are the ways the vector kernels run: the 512-bit tier (8×32 ZMM
// matmul tiles, eight-lane exp and GELU), the YMM tier (4×16 tiles,
// four-lane exp and GELU) and the scalar reference. tiers[:2] are the lane
// tiers.
var tiers = []string{"zmm", "ymm", "scalar"}

// onTier runs f on the named tier, or skips t, giving the reason, where
// this CPU or OS cannot run that tier.
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

// onLaneTiers runs f in one subtest per lane tier, on that tier.
func onLaneTiers(t *testing.T, f func(t *testing.T)) {
	for _, tier := range tiers[:2] {
		t.Run(tier, func(t *testing.T) { onTier(t, tier, func() { f(t) }) })
	}
}

// onEveryTier is onLaneTiers with the scalar reference as a third subtest.
func onEveryTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) { onTier(t, tier, func() { f(t) }) })
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

// expCheckArgs are float32 exp arguments: each transcendental edge
// rounded to float32 with its float32 neighbours, uniform draws over
// ±800, and the denormal-result band of exp, densely.
func expCheckArgs() []float32 {
	var in []float32
	for _, v := range transcendentalEdges() {
		f := float32(v)
		in = append(in, f, math.Nextafter32(f, float32(math.Inf(1))), math.Nextafter32(f, float32(math.Inf(-1))))
	}
	r := rand.New(rand.NewSource(27))
	for len(in) < 1<<18 {
		in = append(in, float32(r.Float64()*1600-800))
	}
	for x := float32(-750); x < -700; x += 0.0137 {
		in = append(in, x)
	}
	return in
}

// The exp pass against math.Exp of the float32 difference on each lane
// tier, in calls of every length 1–64 and with out over the row, at max 0
// (the argument itself) and at max 1.5; and the tier's tanh (tanhLanes,
// or tanhLanesZ, whose eight-lane steps otherwise run only inside GELU)
// against math.Tanh on the float64 edges — tanh's 0.625 branch point and
// 0.5·MAXLOG with their neighbours, ±0, NaN — in calls of every length
// 1–64, so the eight-lane body and its four-lane remainder both see them.
func TestLaneKernelsMatchMath(t *testing.T) {
	in := expCheckArgs()
	onLaneTiers(t, func(t *testing.T) {
		var e [laneChunk]float64
		out := make([]float32, laneChunk)
		for _, max := range []float32{0, 1.5} {
			for lo, n, k := 0, 1, 0; lo < len(in); lo, n, k = lo+n, n%laneChunk+1, k+1 {
				row := in[lo:min(lo+n, len(in))]
				dst := out[:len(row)]
				if k%2 == 1 {
					copy(dst, row)
					row = dst
				}
				want := make([]float64, 0, laneChunk)
				for _, v := range row {
					want = append(want, math.Exp(float64(v-max)))
				}
				expShifted(&e, dst, row, max)
				for j, w := range want {
					if got := math.Float64bits(e[j]); got != math.Float64bits(w) || math.Float32bits(dst[j]) != math.Float32bits(float32(w)) {
						t.Fatalf("exp(%#08x − %v) = %#016x, out %#08x; want %#016x, %#08x", math.Float32bits(in[lo+j]), max,
							got, math.Float32bits(dst[j]), math.Float64bits(w), math.Float32bits(float32(w)))
					}
				}
			}
		}
		var x, th [laneChunk]float64
		edges := transcendentalEdges()
		r := rand.New(rand.NewSource(27))
		for len(edges) < 1<<16 {
			edges = append(edges, r.Float64()*200-100)
		}
		tanh := tanhLanes
		if useZMM {
			tanh = tanhLanesZ
		}
		for lo, n := 0, 1; lo < len(edges); lo, n = lo+n, n%laneChunk+1 {
			k := copy(x[:n], edges[lo:])
			tanh(th[:(k+3)&^3], x[:])
			for i, v := range x[:k] {
				if got, want := math.Float64bits(th[i]), math.Float64bits(math.Tanh(v)); got != want {
					t.Fatalf("tanh(%v = %#016x) = %#016x, want %#016x", v, math.Float64bits(v), got, want)
				}
			}
		}
	})
}

// rowMax against the scalar strict-> scan on every length 1–40, the
// maximum placed at each position in turn, with NaN elements (never the
// maximum unless first) and ±Inf; a zero maximum may differ only in sign.
func TestRowMaxMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	scan := func(row []float32) float32 {
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}
	nan := math.Float32frombits(0x7fc0beef)
	onLaneTiers(t, func(t *testing.T) {
		for n := 1; n <= 40; n++ {
			for at := 0; at < n; at++ {
				for _, peak := range []float32{3, 0, float32(math.Inf(1)), float32(math.Inf(-1)), nan} {
					row := make([]float32, n)
					for i := range row {
						switch r.Intn(5) {
						case 0:
							row[i] = nan
						case 1:
							row[i] = float32(math.Copysign(0, -1))
						default:
							row[i] = float32(r.NormFloat64()) - 4
						}
					}
					row[at] = peak
					got, want := rowMax(row), scan(row)
					if got == 0 && want == 0 {
						continue
					}
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("len %d, %v at %d: rowMax %#08x, scan %#08x", n, peak, at, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	})
}

// checkKernelsMatchScalar runs GELU, GELUBackward and softmaxRows over x
// split m×n, on the current tier and scalar, and fails on any bit that
// differs. Each runs twice: GELU into its own g′ and in place over a copy
// of x, GELUBackward into its own dx and in place over a copy of dy, and
// softmaxRows into its own p and in place over a copy of x.
func checkKernelsMatchScalar(t *testing.T, x []float32, m, n int) {
	t.Helper()
	dy := make([]float32, len(x))
	for i := range x {
		dy[i] = x[len(x)-1-i]
	}
	// Each in-place result must equal the scalar out-of-place one (ref).
	names := [...]string{"GELU y", "GELU g′", "GELU y, g′ over x", "GELU g′ over x",
		"GELUBackward", "GELUBackward over dy", "softmaxRows", "softmaxRows over x"}
	ref := [len(names)]int{0, 1, 0, 1, 4, 4, 6, 6}
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
		pIn := append([]float32(nil), x[:m*n]...)
		softmaxRows(pIn, pIn, m, n)
		return [...][]float32{y, gp, yIn, gpIn, dx, dxIn, p, pIn}
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

// Each lane tier against the scalar reference.
func TestTranscendentalKernelsMatchScalar(t *testing.T) {
	onLaneTiers(t, func(t *testing.T) {
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

		// Every length around the chunk and both tiers' lane boundaries,
		// as one row, with and without the causal mask in it.
		r := rand.New(rand.NewSource(28))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 63, 64, 65, 255, 256, 257} {
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
	})
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

// GELU against the independent reference, bit for bit, on every tier:
// every 251st float32 bit pattern, in calls whose lengths cycle through
// 1–17 (the eight-lane body, the four-lane step and each tail length),
// every other call writing g′ over x, then as one call over x.
// checkKernelsMatchScalar compares the tiers with each other; this catches
// them drifting together.
func TestGELUMatchesReference(t *testing.T) {
	var x []float32
	for u := uint64(0); u < 1<<32; u += 251 {
		x = append(x, math.Float32frombits(uint32(u)))
	}
	wantY, wantG := make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		wantY[i], wantG[i] = geluRef(v)
	}
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
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
			onTier(t, tier, func() {
				copy(gp, x)
				for lo, n, k := 0, 1, 0; lo < len(x); lo, n, k = lo+n, n%17+1, k+1 {
					hi := min(lo+n, len(x))
					in := x[lo:hi]
					if k%2 == 1 {
						in = gp[lo:hi] // still x here
					}
					GELU(y[lo:hi], gp[lo:hi], in)
				}
				check("lengths 1–17")
				copy(gp, x)
				GELU(y, gp, gp)
				check("one call over x")
			})
		})
	}
}

// The stack chunks and row sums stay on the stack: no kernel allocates,
// on any tier. CrossEntropy's rows are longer than a chunk; LayerNorm's
// 19×70 has two full blocks of eight rows, a row tail and a column tail,
// and transposeInto's 19×70 full 8×8 blocks and both edges.
func TestTranscendentalKernelsAllocateNothing(t *testing.T) {
	const batch, seq, heads, dh = 1, 70, 1, 4
	const rows, vocab = 3, 150
	const lnM, lnN = 19, 70
	r := rand.New(rand.NewSource(29))
	x := randSlice(r, 300)
	y, gp, dx := make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
	qkv := randSlice(r, batch*seq*3*heads*dh)
	ctx, probs := make([]float32, batch*seq*heads*dh), make([]float32, batch*heads*seq*seq)
	scratch := make([]float32, AttentionScratchLen(seq, dh))
	logits, ceProbs, dLogits := randSlice(r, rows*vocab), make([]float32, rows*vocab), make([]float32, rows*vocab)
	targets := []int{0, 77, vocab - 1}
	lnX, gamma, beta := randSlice(r, lnM*lnN), randSlice(r, lnN), randSlice(r, lnN)
	lnY, xhat, invStd, lnDX := make([]float32, lnM*lnN), make([]float32, lnM*lnN), make([]float32, lnM), make([]float32, lnM*lnN)
	dGamma, dBeta, tr := make([]float32, lnN), make([]float32, lnN), make([]float32, lnM*lnN)
	kernels := func() {
		GELU(y, gp, x)
		GELUBackward(dx, y, gp)
		softmaxRows(y, x, 3, 100)
		CausalAttention(ctx, probs, qkv, nil, batch, seq, heads, dh, scratch)
		CrossEntropy(ceProbs, logits, targets, rows, vocab)
		CrossEntropyBackward(dLogits, ceProbs, targets, rows, vocab)
		LayerNorm(lnY, xhat, invStd, lnX, gamma, beta, lnM, lnN, 1e-5)
		LayerNormBackward(lnDX, dGamma, dBeta, lnY, xhat, invStd, gamma, lnM, lnN)
		transposeInto(tr, lnX, lnM, lnN, lnN, lnM)
		Add(lnDX, lnX)
		Scale(lnDX, 0.5)
	}
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			onTier(t, tier, func() {
				if a := testing.AllocsPerRun(10, kernels); a != 0 {
					t.Errorf("%v allocs per run, want 0", a)
				}
			})
		})
	}
}

// FuzzTranscendentals reads arbitrary bytes as float32 lanes (any bit
// pattern) and checks GELU, GELUBackward and softmaxRows on each lane tier
// against the scalar reference bit for bit — each also in place — the
// softmax over the lanes split m×n.
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
		onLaneTiers(t, func(t *testing.T) { checkKernelsMatchScalar(t, x, m, n) })
	})
}
