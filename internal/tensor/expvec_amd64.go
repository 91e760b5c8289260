//go:build amd64

package tensor

// Four-lane AVX2+FMA exp and tanh (expvec_amd64.s), bitwise equal to
// math.Exp and math.Tanh lane for lane. They run only where math.Exp itself
// takes its FMA branch: Go sets math's useFMA from AVX and FMA, and every
// CPU that passes hasAVX2FMA has both. Elsewhere useLanes is false and the
// kernels' scalar loops run.

// expLanes sets dst[i] = math.Exp(src[i]) for every lane it can finish and
// returns a mask with bit i set for each lane i it left to the caller:
// NaN, x > 709.78 (+Inf included), and arguments whose result archExp
// builds on its denormal path. len(dst) must be a multiple of 4, at most
// 64, and len(src) >= len(dst).
//
//go:noescape
func expLanes(dst, src []float64) uint64

// tanhLanes sets dst[i] = math.Tanh(src[i]). len(dst) must be a multiple
// of 4 and len(src) >= len(dst).
//
//go:noescape
func tanhLanes(dst, src []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS saves.
func xgetbv0() uint32

// useLanes selects the vector kernels; tests clear it to run the scalar
// reference.
var useLanes = hasAVX2FMA()

// hasAVX2FMA reports AVX, AVX2 and FMA, with the OS saving XMM and YMM
// state (OSXSAVE, and XCR0 bits 1 and 2).
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}
