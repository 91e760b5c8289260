package optimizer

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAdamPackedMatchesScalar pins Adam.Step — the packed SSE2 kernel plus
// scalar tail on amd64 — bitwise against the scalar loop over ten steps, for
// lengths around the four-element kernel width and for gradients that leave
// the comfortable range: zeros, fp32 subnormals, ±Inf (whose moments meet as
// Inf−Inf) and NaN, alone and mixed so that two NaNs of different origin
// reach one operation. (That is the one place bits may differ: x86 returns the
// destination operand's payload when both operands are NaN, and which operand
// of a commutative scalar op is the destination is the compiler's choice —
// it changes with -N — so a NaN is only required to match a NaN.) With weight
// decay the step is the scalar loop itself; the case checks that routing.
func TestAdamPackedMatchesScalar(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	kinds := map[string]func(r *rand.Rand, step, i int) float32{
		"random":    func(r *rand.Rand, _, _ int) float32 { return float32(r.NormFloat64()) },
		"zero":      func(*rand.Rand, int, int) float32 { return 0 },
		"subnormal": func(r *rand.Rand, _, _ int) float32 { return float32(r.NormFloat64()) * 1e-41 },
		"inf": func(_ *rand.Rand, step, i int) float32 {
			if (step+i)%2 == 0 {
				return inf
			}
			return -inf
		},
		"nan": func(*rand.Rand, int, int) float32 { return nan },
		"mixed": func(r *rand.Rand, step, i int) float32 {
			switch (step + i) % 7 {
			case 0:
				return inf
			case 1:
				return -inf
			case 2:
				return nan
			case 3:
				return 0
			case 4:
				return float32(r.NormFloat64()) * 1e-41
			}
			return float32(r.NormFloat64()) * 100
		},
	}
	for name, grad := range kinds {
		for _, n := range []int{0, 1, 2, 3, 1001} {
			for _, wd := range []float64{0, 0.01} {
				t.Run(fmt.Sprintf("%s/n=%d/wd=%g", name, n, wd), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(n) + 7))
					a := NewAdam(n, 3e-3)
					a.WeightDecay = wd
					got := make([]float32, n)
					for i := range got {
						got[i] = float32(r.NormFloat64())
					}
					want := append([]float32(nil), got...)
					wantM, wantV := make([]float32, n), make([]float32, n)
					grads := make([]float32, n)
					for step := 1; step <= 10; step++ {
						for i := range grads {
							grads[i] = grad(r, step, i)
						}
						a.Step(got, grads)
						adamScalar(want, wantM, wantV, grads, float32(a.Beta1), float32(a.Beta2), float32(wd),
							1-math.Pow(a.Beta1, float64(step)), 1-math.Pow(a.Beta2, float64(step)), a.LR, a.Eps)
						for _, c := range []struct {
							what      string
							got, want []float32
						}{{"param", got, want}, {"m", a.m, wantM}, {"v", a.v, wantV}} {
							for i := range c.want {
								g, w := c.got[i], c.want[i]
								if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
									t.Fatalf("step %d %s[%d] = %#08x, scalar loop gives %#08x",
										step, c.what, i, math.Float32bits(g), math.Float32bits(w))
								}
							}
						}
					}
				})
			}
		}
	}
}

// FuzzAdamLanes reads the step t from the first four bytes and the rest as
// float32 words for params, m, v and grads, any pattern: NaN payloads,
// ±Inf, ±0, subnormals, max-finite. t reaches past 350 and 37,000, where
// the fp64 bias corrections for β1 and β2 round to exactly 1, so bc ranges
// over every value the trainer can reach. One Adam.Step — the lane kernel
// and its scalar tail, where the CPU has the lane features — must be
// bitwise the scalar loop, a NaN only required to match a NaN as in
// TestAdamPackedMatchesScalar.
func FuzzAdamLanes(f *testing.F) {
	word := func(t uint32, vs ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, t)
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(word(0, 0x3f800000, 0xbf000000, 0x3c23d70a, 0x3e4ccccd, 0x00000001, 0x80000000, 0x7f7fffff, 0x3a83126f))
	f.Add(word(400, 0x7fc00123, 0xff800000, 0x7f800000, 0x80000000, 0x7f800001, 0x00400000, 0xff7fffff, 0x3f800000, 0x40490fdb))
	f.Add(word(40000, 0x3a83126f, 0x3f000000, 0x2f800000, 0x1f800000, 0x00000000, 0x3e800000, 0x3dcccccd, 0xbf800000))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		step := 1 + int(binary.LittleEndian.Uint32(in)%100000)
		in = in[4:]
		w := len(in) / 4
		n := min(w, 67) // past several 8-lane iterations, plus a tail
		f32 := func(salt int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*((i*4+salt)%w):]))
			}
			return s
		}
		params, m, v, grads := f32(0), f32(1), f32(2), f32(3)
		a := NewAdam(n, 3e-3)
		a.Restore([][]float32{m, v}, step-1)
		got := append([]float32(nil), params...)
		a.Step(got, grads)

		wantM, wantV := append([]float32(nil), m...), append([]float32(nil), v...)
		want := append([]float32(nil), params...)
		adamScalar(want, wantM, wantV, grads, float32(a.Beta1), float32(a.Beta2), 0,
			1-math.Pow(a.Beta1, float64(step)), 1-math.Pow(a.Beta2, float64(step)), a.LR, a.Eps)
		for _, c := range []struct {
			what      string
			got, want []float32
		}{{"param", got, want}, {"m", a.m, wantM}, {"v", a.v, wantV}} {
			for i := range c.want {
				g, w := c.got[i], c.want[i]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("t=%d %s[%d] = %#08x, scalar loop gives %#08x",
						step, c.what, i, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
	})
}
