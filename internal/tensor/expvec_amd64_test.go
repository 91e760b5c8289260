//go:build amd64

package tensor

import "testing"

// The 512-bit tier needs the lanes, AVX-512F and the OS saving opmask and
// both halves of the ZMM file; any one missing leaves the YMM tier.
func TestZMMTierProbe(t *testing.T) {
	const avx2, avx512f = 1 << 5, 1 << 16
	const x87, sse, avx, opmask, zmmHi256, hi16ZMM = 1 << 0, 1 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7
	const ymmOS = x87 | sse | avx
	const zmmOS = ymmOS | opmask | zmmHi256 | hi16ZMM
	for _, c := range []struct {
		name  string
		lanes bool
		ebx7  uint32
		xcr0  uint32
		want  bool
	}{
		{"everything present", true, avx2 | avx512f, zmmOS, true},
		{"lanes off", false, avx2 | avx512f, zmmOS, false},
		{"no AVX-512F", true, avx2, zmmOS, false},
		{"XCR0 bits 5-7 clear", true, avx2 | avx512f, ymmOS, false},
		{"opmask not saved", true, avx2 | avx512f, zmmOS &^ opmask, false},
		{"upper ZMM0-15 not saved", true, avx2 | avx512f, zmmOS &^ zmmHi256, false},
		{"ZMM16-31 not saved", true, avx2 | avx512f, zmmOS &^ hi16ZMM, false},
		{"YMM not saved", true, avx2 | avx512f, zmmOS &^ avx, false},
	} {
		if got := zmmTier(c.lanes, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: zmmTier(%v, %#x, %#x) = %v, want %v", c.name, c.lanes, c.ebx7, c.xcr0, got, c.want)
		}
	}
	t.Logf("this CPU: useLanes=%v useZMM=%v", useLanes, hasZMMTier())
}
