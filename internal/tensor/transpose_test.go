package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// layerNormRef and layerNormBackwardRef are LayerNorm's two loops as they
// stood before the lanes: one row at a time, every sum a float64 fold in
// ascending j. They are the oracle each tier must match bit for bit. The
// loops leave open which payload an op returns where two NaNs meet; first
// spells out the rule the kernels keep in every build: the NaN of the
// operand each puts first, quieted.
func layerNormRef(y, xhat, invStd, x, gamma, beta []float32, m, n int, eps float32) {
	for i := 0; i < m; i++ {
		row := x[i*n : i*n+n]
		var mean float64
		for _, v := range row {
			mean = first(mean, mean+float64(v))
		}
		mean /= float64(n)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance = first(variance, variance+d*d)
		}
		variance /= float64(n)
		is := float32(1 / math.Sqrt(first(variance, variance+float64(eps))))
		invStd[i] = is
		xh := xhat[i*n : i*n+n]
		yr := y[i*n : i*n+n]
		for j, v := range row {
			d := v - float32(mean)
			h := first(d, d*is)
			xh[j] = h
			p := first(h, gamma[j]*h)
			yr[j] = first(p, p+beta[j])
		}
	}
}

func layerNormBackwardRef(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32, m, n int) {
	for i := 0; i < m; i++ {
		dyr := dy[i*n : i*n+n]
		xh := xhat[i*n : i*n+n]
		dxr := dx[i*n : i*n+n]
		for j, g := range dyr {
			p := first(xh[j], g*xh[j])
			dGamma[j] = first(p, dGamma[j]+p)
			dBeta[j] = first(dBeta[j], dBeta[j]+g)
		}
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			dxh := first(float64(gamma[j]), float64(g)*float64(gamma[j]))
			sumDxh = first(sumDxh, sumDxh+dxh)
			p := first(float64(xh[j]), dxh*float64(xh[j]))
			sumDxhXh = first(sumDxhXh, sumDxhXh+p)
		}
		meanDxh := sumDxh / float64(n)
		meanDxhXh := sumDxhXh / float64(n)
		is := float64(invStd[i])
		for j, g := range dyr {
			dxh := first(float64(gamma[j]), float64(g)*float64(gamma[j]))
			d := dxh - meanDxh - first(float64(xh[j]), float64(xh[j])*meanDxhXh)
			f := float32(first(d, is*d))
			dxr[j] = first(f, dxr[j]+f)
		}
	}
}

// first is r, the result of an add or a multiply whose first operand is a:
// where a is a NaN, a quieted, as x86 gives it; otherwise r, which has the
// same bits in either operand order.
func first[F float32 | float64](a, r F) F {
	if a == a {
		return r
	}
	if p, ok := any(a).(float32); ok {
		return F(math.Float32frombits(math.Float32bits(p) | 0x00400000))
	}
	return F(math.Float64frombits(math.Float64bits(float64(a)) | 0x0008000000000000))
}

// lnCase is one LayerNorm forward and backward: its inputs, and the
// accumulators backward starts from.
type lnCase struct {
	m, n                             int
	eps                              float32
	x, gamma, beta, dy, xhat, invStd []float32
	dx0, dGamma0, dBeta0             []float32
}

// lnOutputs names the six results compared.
var lnOutputs = [...]string{"y", "x̂", "invStd", "dx", "dγ", "dβ"}

// run runs both kernels on copies of the case, the backward on the case's
// own x̂ and invStd (so its inputs can hold values forward never writes).
func (c *lnCase) run(forward func(y, xhat, invStd, x, gamma, beta []float32, m, n int, eps float32),
	backward func(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32, m, n int)) (out [len(lnOutputs)][]float32) {
	y, xh, is := make([]float32, c.m*c.n), make([]float32, c.m*c.n), make([]float32, c.m)
	forward(y, xh, is, c.x, c.gamma, c.beta, c.m, c.n, c.eps)
	dx := append([]float32(nil), c.dx0...)
	dG := append([]float32(nil), c.dGamma0...)
	dB := append([]float32(nil), c.dBeta0...)
	backward(dx, dG, dB, c.dy, c.xhat, c.invStd, c.gamma, c.m, c.n)
	return [...][]float32{y, xh, is, dx, dG, dB}
}

// check fails t on the first bit in which LayerNorm and LayerNormBackward,
// on the current tier, differ from the reference loops.
func (c *lnCase) check(t *testing.T) {
	t.Helper()
	want := c.run(layerNormRef, layerNormBackwardRef)
	got := c.run(LayerNorm, LayerNormBackward)
	for k, name := range lnOutputs {
		for i, w := range want[k] {
			if g := got[k][i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%d×%d: %s[%d] = %#08x, reference %#08x", c.m, c.n, name, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// newLNCase draws an m×n case with the given eps from next, which returns
// one float32 per call: x, dy, γ, β, x̂, invStd and the backward
// accumulators in turn.
func newLNCase(m, n int, eps float32, next func() float32) *lnCase {
	fill := func(k int) []float32 {
		v := make([]float32, k)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	return &lnCase{m: m, n: n, eps: eps,
		x: fill(m * n), dy: fill(m * n), gamma: fill(n), beta: fill(n), xhat: fill(m * n), invStd: fill(m),
		dx0: fill(m * n), dGamma0: fill(n), dBeta0: fill(n)}
}

// Every tier against the reference loops at every shape with m ≤ 19 and n
// ≤ 70: two full blocks of eight rows and every row tail, and every column
// tail past the lanes. In one case of three the values include, one in
// eight, the special classes of addSpecials (NaN payloads of both signs,
// ±0, ±Inf, subnormals, the finite extremes), in x, dy, γ, β and the
// saved state alike, so NaNs meet NaNs and each op's operand order shows,
// and in one such case of four eps is a special too.
func TestLayerNormTiersMatchScalar(t *testing.T) {
	onEveryTier(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(35))
		for m := 1; m <= 19; m++ {
			for n := 1; n <= 70; n++ {
				specials := r.Intn(3) == 0
				eps := float32(1e-5)
				if specials && r.Intn(4) == 0 {
					eps = math.Float32frombits(addSpecials[r.Intn(len(addSpecials))])
				}
				c := newLNCase(m, n, eps, func() float32 {
					if specials && r.Intn(8) == 0 {
						return math.Float32frombits(addSpecials[r.Intn(len(addSpecials))])
					}
					return float32(r.NormFloat64())
				})
				c.check(t)
			}
		}
	})
}

// FuzzLayerNorm reads a shape and arbitrary float32 bit patterns, which
// it deals cyclically into eps and every input, and checks both LayerNorm kernels
// on each lane tier against the reference loops bit for bit.
func FuzzLayerNorm(f *testing.F) {
	seed := func(m, n byte, vs ...float32) []byte {
		b := []byte{m, n}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(8, 8, 0.5, -1, 2, 0.25, -3, 1.5, 7, -0.125, 4))
	f.Add(seed(9, 11, float32(math.NaN()), 1, float32(math.Inf(-1)), -0.0, 1e-45, 3e38, -2))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return
		}
		m, n := 1+int(b[0])%19, 1+int(b[1])%70
		vals := b[2:]
		k := len(vals) / 4
		i := 0
		next := func() float32 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(vals[4*(i%k):]))
			i++
			return v
		}
		c := newLNCase(m, n, next(), next)
		onLaneTiers(t, c.check)
	})
}

// transposeInto on each lane tier against transposeTiles, the scalar
// tiles, over shapes on both sides of the 8×8 blocks and of the
// sixteen-row pass, empty ones included, with dense rows and with padded
// ones (lds past cols, ldd rounded up to 8 as mulBTFold's m8): arbitrary
// bit patterns move unchanged, and no element of dst outside the
// transpose is written.
func TestTransposeIntoTiersMatchTiles(t *testing.T) {
	dims := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64, 70}
	r := rand.New(rand.NewSource(36))
	onLaneTiers(t, func(t *testing.T) {
		for _, rows := range dims {
			for _, cols := range dims {
				for _, pad := range []bool{false, true} {
					lds, ldd := cols, rows
					if pad {
						lds, ldd = cols+3, (rows+7)&^7
					}
					src := make([]float32, rows*lds)
					for i := range src {
						src[i] = math.Float32frombits(r.Uint32())
					}
					got, want := make([]float32, cols*ldd), make([]float32, cols*ldd)
					for i := range got {
						got[i] = math.Float32frombits(0x7fc0dead)
						want[i] = got[i]
					}
					transposeInto(got, src, rows, cols, lds, ldd)
					transposeTiles(want, src, rows, cols, lds, ldd)
					for i, w := range want {
						if g := got[i]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("%dx%d lds %d ldd %d: dst[%d] = %#08x, tiles %#08x", rows, cols, lds, ldd, i, math.Float32bits(g), math.Float32bits(w))
						}
					}
				}
			}
		}
	})
}
