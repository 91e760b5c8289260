//go:build !amd64

package tensor

// Portable batch conversions: the scalar loops in half.go are the whole
// implementation off amd64.

func halfDecode(dst []float32, src []Half) { halfDecodeScalar(dst, src) }

func fromFloatsImpl(b HalfBuffer, src []float32) { fromFloatsScalar(b, src) }

func roundHalfImpl(x []float32) { roundHalfScalar(x) }

func fromFloatsRoundImpl(b HalfBuffer, src []float32) bool { return fromFloatsRoundScalar(b, src) }

func roundHalfCheckImpl(x []float32) bool { return roundHalfCheckScalar(x) }
