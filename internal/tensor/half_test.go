package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHalfExactValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Half
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff}, // largest finite fp16
		{-65504, 0xfbff},
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
		{0.333251953125, 0x3555},        // nearest fp16 to 1/3
	}
	for _, c := range cases {
		if got := fromFloat32(c.f); got != c.bits {
			t.Errorf("fromFloat32(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if got := c.bits.float32(); got != c.f {
			t.Errorf("(%#04x).float32() = %v, want %v", c.bits, got, c.f)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	inf := fromFloat32(float32(math.Inf(1)))
	if !inf.IsInf() || inf != 0x7c00 {
		t.Errorf("+Inf encodes to %#04x", inf)
	}
	ninf := fromFloat32(float32(math.Inf(-1)))
	if !ninf.IsInf() || ninf != 0xfc00 {
		t.Errorf("-Inf encodes to %#04x", ninf)
	}
	nan := fromFloat32(float32(math.NaN()))
	if !nan.IsNaN() {
		t.Errorf("NaN encodes to %#04x, not NaN", nan)
	}
	if !math.IsNaN(float64(nan.float32())) {
		t.Error("NaN round-trip lost NaN-ness")
	}
	// Overflow rounds to infinity.
	if got := fromFloat32(70000); !got.IsInf() {
		t.Errorf("70000 should overflow to Inf, got %#04x", got)
	}
	// Tiny values flush to signed zero.
	if got := fromFloat32(1e-10); got != 0 {
		t.Errorf("1e-10 should flush to +0, got %#04x", got)
	}
	if got := fromFloat32(-1e-10); got != 0x8000 {
		t.Errorf("-1e-10 should flush to -0, got %#04x", got)
	}
}

func TestHalfRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next fp16 (1+2^-10);
	// RNE must pick the even mantissa, i.e. 1.0.
	f := float32(1) + float32(math.Ldexp(1, -11))
	if got := fromFloat32(f); got != 0x3c00 {
		t.Errorf("halfway 1+2^-11 rounds to %#04x, want 0x3c00 (even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even neighbor is 1+2^-9.
	f = float32(1) + 3*float32(math.Ldexp(1, -11))
	if got := fromFloat32(f); got != 0x3c02 {
		t.Errorf("halfway 1+3*2^-11 rounds to %#04x, want 0x3c02 (even)", got)
	}
}

// Property: decoding any fp16 bit pattern and re-encoding is the identity
// (modulo NaN payload canonicalization).
func TestHalfRoundTripAllBitPatterns(t *testing.T) {
	for i := 0; i <= 0xffff; i++ {
		h := Half(i)
		f := h.float32()
		back := fromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN pattern %#04x lost on round trip", i)
			}
			continue
		}
		if back != h {
			t.Fatalf("bit pattern %#04x -> %v -> %#04x", i, f, back)
		}
	}
}

// Property: rounding error of fromFloat32 is at most half a ULP of the fp16
// target for in-range values.
func TestHalfRoundingErrorBound(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.Abs(float64(v)) > MaxHalf {
			return true
		}
		got := float64(fromFloat32(v).float32())
		// ULP at this magnitude: 2^(e-10) where e is the fp16 exponent.
		av := math.Abs(float64(v))
		ulp := math.Ldexp(1, -24) // subnormal ULP
		if av >= 6.103515625e-05 {
			_, e := math.Frexp(av)
			ulp = math.Ldexp(1, e-11)
		}
		return math.Abs(got-float64(v)) <= ulp/2+1e-30
	}
	cfg := &quick.Config{
		MaxCount: 5000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(float32(math.Ldexp(r.Float64()*2-1, r.Intn(36)-20)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHalfBuffer(t *testing.T) {
	src := []float32{0, 1, -2.5, 3.25, 100}
	b := NewHalfBuffer(len(src))
	b.FromFloats(src)
	if b.Bytes() != int64(len(src)*2) {
		t.Errorf("Bytes() = %d, want %d", b.Bytes(), len(src)*2)
	}
	got := b.Floats()
	for i := range src {
		if got[i] != src[i] {
			t.Errorf("element %d: got %v want %v", i, got[i], src[i])
		}
	}
	if overflowed(b) {
		t.Error("finite buffer reported overflow")
	}
	b[2] = halfPosInf
	if !overflowed(b) {
		t.Error("buffer with Inf did not report overflow")
	}
}

func TestHalfBufferLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	NewHalfBuffer(3).FromFloats(make([]float32, 4))
}

// FuzzHalfRoundTrip drives the batch conversion surface with arbitrary
// fp32 bit patterns (NaN payloads, Inf, subnormals included): the batch
// encoders must match the scalar reference bit for bit, the fused
// round-and-store must agree with the separate passes, decoding what was
// encoded must round-trip exactly, and the overflow flag must track
// non-finite encodings.
func FuzzHalfRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0x3f800000), uint32(0x7f800001), uint32(0x00000001))
	f.Add(uint32(0x7fc00000), uint32(0xff800000), uint32(0x477fefff), uint32(0x33800000))
	f.Add(uint32(0x38800000), uint32(0x477ff000), uint32(0x80000001), uint32(0xb8000000))
	f.Fuzz(func(t *testing.T, u0, u1, u2, u3 uint32) {
		src := []float32{
			math.Float32frombits(u0), math.Float32frombits(u1),
			math.Float32frombits(u2), math.Float32frombits(u3),
		}
		enc := NewHalfBuffer(len(src))
		enc.FromFloats(src)
		rounded := append([]float32(nil), src...)
		roundHalf(rounded)
		fused := append([]float32(nil), src...)
		fusedEnc := NewHalfBuffer(len(src))
		overflow := fusedEnc.FromFloatsRound(fused)
		checked := append([]float32(nil), src...)
		checkFlag := RoundHalfCheck(checked)
		dec := make([]float32, len(src))
		enc.ToFloats(dec)
		for i, v := range src {
			want := fromFloat32(v)
			if enc[i] != want || fusedEnc[i] != want {
				t.Fatalf("encode(%#08x): batch %#04x fused %#04x, want %#04x",
					math.Float32bits(v), enc[i], fusedEnc[i], want)
			}
			wantRound := math.Float32bits(want.float32())
			for _, got := range []float32{rounded[i], fused[i], checked[i], dec[i]} {
				if math.Float32bits(got) != wantRound {
					t.Fatalf("round/decode(%#08x) = %#08x, want %#08x",
						math.Float32bits(v), math.Float32bits(got), wantRound)
				}
			}
			// Decode→encode is the identity (modulo NaN canonicalization).
			if back := fromFloat32(dec[i]); back != enc[i] && !enc[i].IsNaN() {
				t.Fatalf("round trip %#04x -> %v -> %#04x", enc[i], dec[i], back)
			}
		}
		if want := overflowed(enc); overflow != want || checkFlag != want {
			t.Fatalf("overflow flags fused=%v checked=%v, want %v", overflow, checkFlag, want)
		}
	})
}

// halfProbeValues enumerates the inputs that exercise every branch and
// boundary of the fp16 conversion: each fp16 bit pattern's exact fp32
// image, both neighbors of that image, halfway (tie) points, the
// subnormal/normal and finite/Inf borders, and specials.
func halfProbeValues() []float32 {
	var vs []float32
	add := func(f float32) {
		u := math.Float32bits(f)
		vs = append(vs, f,
			math.Float32frombits(u+1),
			math.Float32frombits(u-1))
	}
	for i := 0; i <= 0xffff; i++ {
		f := Half(i).float32()
		add(f)
		// Tie point halfway to the next representable fp16 magnitude.
		next := Half(i + 1)
		if !Half(i).IsInf() && !Half(i).IsNaN() && !next.IsNaN() && !next.IsInf() && (i&0x7fff) != 0x7fff {
			add((f + next.float32()) / 2)
		}
	}
	vs = append(vs,
		0, float32(math.Copysign(0, -1)),
		65504, 65519.999, 65520, 65536, 1e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		6.103515625e-05, 5.960464477539063e-08, 2.9802322387695312e-08, 1e-10, -1e-10,
	)
	return vs
}

// The F16C kernels against the scalar loops, bit for bit: ToFloats over
// every binary16 pattern, and FromFloats, FromFloatsRound, roundHalf and
// RoundHalfCheck (values and overflow flags) over halfProbeValues and every
// 251st float32 bit pattern. Chunks of 4099 leave a scalar tail after the
// lanes, and each chunk's flags are compared on their own.
func TestHalfLanesMatchScalar(t *testing.T) {
	logScalarOnly(t)
	all := make(HalfBuffer, 1<<16)
	for i := range all {
		all[i] = Half(i)
	}
	decode := func() []float32 {
		d := make([]float32, len(all))
		all.ToFloats(d)
		return d
	}
	var wantDec []float32
	scalarRef(func() { wantDec = decode() })
	for i, v := range decode() {
		if got, want := math.Float32bits(v), math.Float32bits(wantDec[i]); got != want {
			t.Fatalf("ToFloats(%#04x) = %#08x, scalar %#08x", i, got, want)
		}
	}

	type result struct {
		enc, fusedEnc           HalfBuffer
		rounded, fused, checked []float32
		fusedFlag, checkedFlag  bool
	}
	convert := func(src []float32) (r result) {
		r.enc = NewHalfBuffer(len(src))
		r.enc.FromFloats(src)
		r.rounded = append([]float32(nil), src...)
		roundHalf(r.rounded)
		r.fused = append([]float32(nil), src...)
		r.fusedEnc = NewHalfBuffer(len(src))
		r.fusedFlag = r.fusedEnc.FromFloatsRound(r.fused)
		r.checked = append([]float32(nil), src...)
		r.checkedFlag = RoundHalfCheck(r.checked)
		return r
	}
	check := func(src []float32) {
		var want result
		scalarRef(func() { want = convert(src) })
		got := convert(src)
		if got.fusedFlag != want.fusedFlag || got.checkedFlag != want.checkedFlag {
			t.Fatalf("overflow flags fused=%v checked=%v, scalar %v %v (chunk from %#08x)",
				got.fusedFlag, got.checkedFlag, want.fusedFlag, want.checkedFlag, math.Float32bits(src[0]))
		}
		for i, v := range src {
			if got.enc[i] != want.enc[i] || got.fusedEnc[i] != want.fusedEnc[i] {
				t.Fatalf("encode(%#08x) = %#04x fused %#04x, scalar %#04x",
					math.Float32bits(v), got.enc[i], got.fusedEnc[i], want.enc[i])
			}
			for _, p := range [][2]float32{{got.rounded[i], want.rounded[i]}, {got.fused[i], want.fused[i]}, {got.checked[i], want.checked[i]}} {
				if math.Float32bits(p[0]) != math.Float32bits(p[1]) {
					t.Fatalf("round(%#08x) = %#08x, scalar %#08x", math.Float32bits(v), math.Float32bits(p[0]), math.Float32bits(p[1]))
				}
			}
		}
	}
	const chunk = 4099
	probe := halfProbeValues()
	for lo := 0; lo < len(probe); lo += chunk {
		check(probe[lo:min(lo+chunk, len(probe))])
	}
	sweep := make([]float32, 0, chunk)
	for u := uint64(0); u < 1<<32; u += 251 {
		sweep = append(sweep, math.Float32frombits(uint32(u)))
		if len(sweep) == chunk {
			check(sweep)
			sweep = sweep[:0]
		}
	}
	check(sweep)
}

// The batch fast paths (FromFloats, ToFloats, roundHalf) must match the
// scalar reference conversions bit for bit — the goldens and the wire
// quantization depend on it.
func TestHalfFastPathsMatchReference(t *testing.T) {
	probe := halfProbeValues()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		probe = append(probe, float32(math.Ldexp(r.Float64()*2-1, r.Intn(60)-30)))
	}
	enc := NewHalfBuffer(len(probe))
	enc.FromFloats(probe)
	rounded := make([]float32, len(probe))
	copy(rounded, probe)
	roundHalf(rounded)
	for i, f := range probe {
		want := fromFloat32(f)
		if enc[i] != want {
			t.Fatalf("FromFloats(%v = %#08x) = %#04x, want %#04x",
				f, math.Float32bits(f), enc[i], want)
		}
		if got, w := math.Float32bits(rounded[i]), math.Float32bits(want.float32()); got != w {
			t.Fatalf("roundHalf(%v = %#08x) = %#08x, want %#08x",
				f, math.Float32bits(f), got, w)
		}
	}
	// ToFloats over every fp16 bit pattern vs the scalar decode.
	all := NewHalfBuffer(0x10000)
	for i := range all {
		all[i] = Half(i)
	}
	dec := make([]float32, len(all))
	all.ToFloats(dec)
	for i, h := range all {
		if got, want := math.Float32bits(dec[i]), math.Float32bits(h.float32()); got != want {
			t.Fatalf("ToFloats(%#04x) = %#08x, want %#08x", i, got, want)
		}
	}
}

// overflowed reports whether any element of b is Inf or NaN: the reference
// for the overflow flag FromFloatsRound and RoundHalfCheck return.
func overflowed(b HalfBuffer) bool {
	for _, h := range b {
		if h&halfExpMask == halfExpMask {
			return true
		}
	}
	return false
}
