//go:build amd64

package tensor

// F16C batch conversions (half_amd64.s) behind useLanes, eight lanes at a
// time; the scalar loops in half.go finish the tail and run everything on
// CPUs without the lane features. Every lane is bitwise the scalar
// conversion (TestHalfLanesMatchScalar), so both paths agree.

// halfDecodeLanes decodes len(dst) halves into fp32. len(dst) must be a
// multiple of 8 and len(src) >= len(dst).
//
//go:noescape
func halfDecodeLanes(dst []float32, src []Half)

// halfEncodeLanes encodes len(dst) floats into halves, rounds src through
// binary16 in place if round is set, and reports whether any element
// encoded to Inf or NaN. Length contract as halfDecodeLanes.
//
//go:noescape
func halfEncodeLanes(dst []Half, src []float32, round bool) bool

// roundHalfLanes rounds x through binary16 in place and reports whether any
// element encoded to Inf or NaN. len(x) must be a multiple of 8.
//
//go:noescape
func roundHalfLanes(x []float32) bool

// The asm runs only under useLanes: even an empty call executes VZEROUPPER,
// which faults on a CPU without AVX.

func halfDecode(dst []float32, src []Half) {
	n8 := 0
	if useLanes {
		n8 = len(dst) &^ 7
		halfDecodeLanes(dst[:n8], src[:n8])
	}
	halfDecodeScalar(dst[n8:], src[n8:])
}

func fromFloatsImpl(b HalfBuffer, src []float32) {
	n8 := 0
	if useLanes {
		n8 = len(b) &^ 7
		halfEncodeLanes(b[:n8], src[:n8], false)
	}
	fromFloatsScalar(b[n8:], src[n8:])
}

func roundHalfImpl(x []float32) {
	n8 := 0
	if useLanes {
		n8 = len(x) &^ 7
		roundHalfLanes(x[:n8])
	}
	roundHalfScalar(x[n8:])
}

func fromFloatsRoundImpl(b HalfBuffer, src []float32) bool {
	n8, overflow := 0, false
	if useLanes {
		n8 = len(b) &^ 7
		overflow = halfEncodeLanes(b[:n8], src[:n8], true)
	}
	return fromFloatsRoundScalar(b[n8:], src[n8:]) || overflow
}

func roundHalfCheckImpl(x []float32) bool {
	n8, overflow := 0, false
	if useLanes {
		n8 = len(x) &^ 7
		overflow = roundHalfLanes(x[:n8])
	}
	return roundHalfCheckScalar(x[n8:]) || overflow
}
