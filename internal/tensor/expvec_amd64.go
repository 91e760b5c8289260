//go:build amd64

package tensor

// AVX2+FMA and AVX-512 exp, tanh and GELU (expvec_amd64.s), bitwise equal
// to math.Exp, math.Tanh and gelu4 lane for lane, on every tier. They run
// only where math.Exp itself takes its FMA branch: Go sets math's useFMA
// from AVX and FMA, and every CPU that passes hasLaneISA has both.
// Elsewhere useLanes is false and the kernels' scalar loops run. Each
// kernel with a Z sibling has the same contract on both tiers; the Z one
// runs eight lanes per step and finishes a len mod 8 remainder with the
// four-lane step.

// expLanes is softmax's exp pass over at most 64 lanes: e[i] =
// math.Exp(float64(row[i] − max)), the subtraction in float32, and out[i]
// = float32(e[i]), row[i] read before out[i] is written, so out may alias
// row. It returns a mask with bit i set for each lane it left to the
// caller, whose e[i] holds the argument instead: NaN, arguments above
// 709.78 (+Inf included), and those whose result archExp builds on its
// denormal path. len(e) must be a multiple of 4, at most 64, and len(out),
// len(row) >= len(e).
//
//go:noescape
func expLanes(e []float64, out, row []float32, max float32) uint64

// expLanesZ is expLanes on the 512-bit tier (useZMM).
//
//go:noescape
func expLanesZ(e []float64, out, row []float32, max float32) uint64

// maxLanes sets m[i] to the largest of row[i], row[i+8], … by strict >,
// each lane seeded with row[0]: a NaN never wins unless row[0] is one,
// and a tie keeps the earlier element. len(row) must be a positive
// multiple of 8.
//
//go:noescape
func maxLanes(m *[8]float32, row []float32)

// tanhLanes sets dst[i] = math.Tanh(src[i]). len(dst) must be a multiple
// of 4 and len(src) >= len(dst).
//
//go:noescape
func tanhLanes(dst, src []float64)

// tanhLanesZ is tanhLanes on the 512-bit tier. Only the float64 edge test
// calls it: GELU runs the same tanh inside geluLanesZ, on arguments that
// never land on its branch points.
//
//go:noescape
func tanhLanesZ(dst, src []float64)

// geluLanes is GELU four floats at a time, bitwise gelu4 on every lane:
// y[i] and gp[i] from x[i], x read before gp is written, so gp may alias
// x. len(y) must be a multiple of 4, and len(gp), len(x) >= len(y).
//
//go:noescape
func geluLanes(y, gp, x []float32)

// geluLanesZ is geluLanes on the 512-bit tier (useZMM).
//
//go:noescape
func geluLanesZ(y, gp, x []float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS saves.
func xgetbv0() uint32

// useLanes selects every vector kernel that needs more than SSE2: the
// exp/tanh lanes, the AVX matmul tiles (gemm_amd64.s), the F16C half
// conversions (half_amd64.s), and the 8×8 register transpose with the
// LayerNorm kernels built on it (transpose_amd64.s). Tests clear it to run
// the scalar reference.
var useLanes = hasLaneISA()

// useZMM selects the 512-bit tier over the YMM one: the 8×32 matmul tiles
// (gemmTileZ, gemmTileZH) over the 4×16 ones, and the eight-lane exp and
// GELU kernels (expLanesZ, geluLanesZ) over the four-lane ones. Tests clear
// it to run the YMM tier.
var useZMM = hasZMMTier()

// hasZMMTier probes the 512-bit tier. The lane probe has seen CPUID leaf 7
// and OSXSAVE, which CPUID.7 and XGETBV need, so it runs only behind it.
func hasZMMTier() bool {
	if !useLanes {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return zmmTier(true, ebx, xgetbv0())
}

// zmmTier reports whether the 512-bit tier may run, given the lane probe,
// CPUID.(7,0):EBX and XCR0: the lanes, AVX-512F (EBX bit 16), and the OS
// saving XMM, YMM, opmask and both halves of the ZMM file (XCR0 bits 1, 2,
// 5, 6 and 7).
func zmmTier(lanes bool, ebx7, xcr0 uint32) bool {
	const avx512f = 1 << 16
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return lanes && ebx7&avx512f != 0 && xcr0&state == state
}

// hasLaneISA reports AVX, AVX2, FMA and F16C, with the OS saving XMM and
// YMM state (OSXSAVE, and XCR0 bits 1 and 2).
func hasLaneISA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx, f16c = 1 << 12, 1 << 27, 1 << 28, 1 << 29
	const want = fma | osxsave | avx | f16c
	if _, _, ecx, _ := cpuid(1, 0); ecx&want != want {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}
