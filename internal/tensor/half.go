// Package tensor provides the numeric substrate for the ZeRO reproduction:
// a software implementation of IEEE-754 binary16 (the "fp16" storage format
// used by mixed-precision training), flat float32 buffers, and the dense
// kernels (matmul, layernorm, gelu, softmax, cross-entropy) needed by the
// transformer model together with their manual gradients.
//
// The package deliberately mirrors what a GPU runtime gives a training
// framework: fp16 is a storage format (2 bytes per element, used for
// parameters, gradients and activations) while arithmetic happens at fp32
// precision, exactly as on V100 tensor cores.
//
// Surface: Half and HalfBuffer with the batch encoders (FromFloats,
// FromFloatsRound, ToFloats, Floats, RoundHalfCheck); MatMul, MatMulBT and
// MatMulATAdd over either Operand; the elementwise ops (Zero, Fill, Copy,
// Add, Scale, Norm2) and the layer kernels (LayerNorm, GELU,
// CausalAttention, CrossEntropy, bias rows) with their backward passes;
// Lanes. Imported by model, zero, optimizer, comm, experiments and bench.
package tensor

import "math"

// Half is an IEEE-754 binary16 value stored in its raw bit representation.
// It is the storage type for mixed-precision parameters, gradients and
// activations; all arithmetic converts through float32.
type Half uint16

// Size constants for memory accounting, in bytes.
const (
	BytesPerHalf    = 2
	BytesPerFloat32 = 4
)

const (
	halfSignMask = 0x8000
	halfExpMask  = 0x7c00
	halfManMask  = 0x03ff
	halfPosInf   = 0x7c00
	halfNaN      = 0x7e00
)

// fromFloat32 converts an fp32 value to binary16 with round-to-nearest-even,
// the rounding mode used by GPU hardware. Values above the fp16 range become
// ±Inf; NaN payloads collapse to a quiet NaN.
func fromFloat32(f float32) Half {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & halfSignMask
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	if exp == 0xff { // Inf or NaN
		if man != 0 {
			return Half(sign | halfNaN)
		}
		return Half(sign | halfPosInf)
	}

	e := exp - 127 + 15
	switch {
	case e >= 0x1f: // overflow: round to infinity
		return Half(sign | halfPosInf)
	case e <= 0: // subnormal or zero in fp16
		if e < -10 { // too small: flush to signed zero
			return Half(sign)
		}
		man |= 0x800000 // make the implicit leading bit explicit
		shift := uint32(14 - e)
		h := uint16(man >> shift)
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && h&1 == 1) {
			h++
		}
		return Half(sign | h)
	default: // normal
		h := uint16(e)<<10 | uint16(man>>13)
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && h&1 == 1) {
			h++ // carry may roll into the exponent; that is correct RNE
		}
		return Half(sign | h)
	}
}

// float32 converts a binary16 value back to fp32. The conversion is exact:
// every fp16 value is representable in fp32.
func (h Half) float32() float32 {
	sign := uint32(h&halfSignMask) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & halfManMask)

	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize into an fp32 normal.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= halfManMask
		return math.Float32frombits(sign | e<<23 | man<<13)
	case 0x1f:
		if man == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func (h Half) IsNaN() bool {
	return h&halfExpMask == halfExpMask && h&halfManMask != 0
}

// IsInf reports whether h encodes ±Inf.
func (h Half) IsInf() bool {
	return h&halfExpMask == halfExpMask && h&halfManMask == 0
}

// MaxHalf is the largest finite binary16 value (65504).
const MaxHalf = 65504.0

// HalfBuffer is a flat fp16 storage buffer, the unit of partitioning for
// ZeRO parameters and gradients.
type HalfBuffer []Half

// NewHalfBuffer allocates a zeroed fp16 buffer of n elements.
func NewHalfBuffer(n int) HalfBuffer { return make(HalfBuffer, n) }

// Bytes returns the storage size of the buffer in bytes.
func (b HalfBuffer) Bytes() int64 { return int64(len(b)) * BytesPerHalf }

// FromFloats overwrites b with the rounded fp16 images of src.
// The two slices must have equal length.
//
// The conversion is a branch-light restatement of fromFloat32 (bit-for-bit
// identical, pinned by TestHalfFastPathsMatchReference): normal values
// round via integer arithmetic on the fp32 bits — adding 0xfff plus the
// round-to-odd bit implements round-to-nearest-even, with a carry that
// correctly rolls into the exponent — and the subnormal range rides the
// FP adder: adding 0.5 (whose ulp is exactly the fp16 subnormal spacing,
// 2⁻²⁴) makes the hardware's own RNE do the rounding. With the lane
// features the bulk runs eight lanes at a time through F16C (half_amd64.s).
func (b HalfBuffer) FromFloats(src []float32) {
	if len(b) != len(src) {
		panic("tensor: HalfBuffer.FromFloats length mismatch")
	}
	fromFloatsImpl(b, src)
}

// fromFloatsScalar is the portable FromFloats body: the generic build's
// whole implementation, and the sub-vector tail on amd64.
func fromFloatsScalar(b HalfBuffer, src []float32) {
	for i, f := range src {
		u := math.Float32bits(f)
		sign := uint16(u>>16) & halfSignMask
		em := u & 0x7fffffff
		switch {
		case em >= 0x47800000: // rounds past MaxHalf, Inf, or NaN
			if em > 0x7f800000 {
				b[i] = Half(sign | halfNaN)
			} else {
				b[i] = Half(sign | halfPosInf)
			}
		case em >= 0x38800000: // fp16 normal: rebias exponent, round, pack
			em += 0xfff + (em >> 13 & 1)
			b[i] = Half(sign | uint16((em-0x38000000)>>13))
		default: // fp16 subnormal or zero
			// s = 0x3f000000 + n where n counts fp16 subnormal ulps (RNE by
			// the FP adder); n = 1024 lands exactly on the smallest normal.
			s := math.Float32frombits(em) + 0.5
			b[i] = Half(sign | uint16(math.Float32bits(s)-0x3f000000))
		}
	}
}

// ToFloats expands b into dst as fp32. The two slices must have equal length.
//
// Finite values decode with the scaling trick: placing the fp16 exponent
// and mantissa bits in the fp32 fields yields the value times 2⁻¹¹²; one
// exact power-of-two multiply rescales it, and the FP multiplier's own
// normalization handles fp16 subnormals with no bit-twiddling branch.
func (b HalfBuffer) ToFloats(dst []float32) {
	if len(b) != len(dst) {
		panic("tensor: HalfBuffer.ToFloats length mismatch")
	}
	halfDecode(dst, b)
}

// halfVal decodes one binary16 value with the same scaling trick as
// ToFloats — the scalar building block of the half-domain matmul kernels,
// bitwise identical to the vectorized decode (half_amd64.s).
func halfVal(h Half) float32 {
	em := uint32(h) & 0x7fff
	if em >= halfPosInf { // Inf or NaN
		return h.float32()
	}
	f := math.Float32frombits(em<<13) * 0x1p112
	return math.Float32frombits(math.Float32bits(f) | uint32(h&halfSignMask)<<16)
}

// halfDecodeScalar is halfVal over src into dst, written out so the loop
// body inlines: the portable halfDecode and the amd64 tail.
func halfDecodeScalar(dst []float32, src []Half) {
	dst = dst[:len(src)]
	for i, h := range src {
		em := uint32(h) & 0x7fff
		if em >= halfPosInf { // Inf or NaN
			dst[i] = h.float32()
			continue
		}
		f := math.Float32frombits(em<<13) * 0x1p112
		dst[i] = math.Float32frombits(math.Float32bits(f) | uint32(h&halfSignMask)<<16)
	}
}

// roundHalf rounds every element of x through binary16 in place — the
// quantization applied when an fp32-computed value is stored or shipped as
// fp16. Equivalent to fromFloat32(v).float32() per element (pinned
// bit-for-bit by TestHalfFastPathsMatchReference) in a single fused pass:
// normals round on the fp32 bits directly and never leave fp32, so no
// decode step is needed. F16C lanes where the CPU has them (half_amd64.s).
func roundHalf(x []float32) {
	roundHalfImpl(x)
}

// roundHalfScalar is the portable roundHalf body and the amd64 tail.
func roundHalfScalar(x []float32) {
	for i, f := range x {
		u := math.Float32bits(f)
		sign := u & 0x80000000
		em := u & 0x7fffffff
		switch {
		case em >= 0x47800000: // rounds past MaxHalf, Inf, or NaN
			if em > 0x7f800000 {
				x[i] = math.Float32frombits(sign | 0x7fc00000)
			} else {
				x[i] = math.Float32frombits(sign | 0x7f800000)
			}
		case em >= 0x38800000: // fp16 normal: mask the rounded bits in place
			em += 0xfff + (em >> 13 & 1)
			if em >= 0x47800000 { // carry rounded up to 2¹⁶ → fp16 Inf
				x[i] = math.Float32frombits(sign | 0x7f800000)
				continue
			}
			x[i] = math.Float32frombits(sign | em&^0x1fff)
		default: // fp16 subnormal or zero: round on the FP adder…
			s := math.Float32frombits(em) + 0.5
			// …and strip the 0.5 again; Sterbenz makes the subtraction exact.
			x[i] = math.Float32frombits(math.Float32bits(s-0.5) | sign)
		}
	}
}

// FromFloatsRound is the fused store of the fp16 compute path: it rounds
// src through binary16 in place (so fp32 consumers see exactly the stored
// values), writes the fp16 images into b, and reports whether any element
// overflowed the fp16 range (rounded to ±Inf, or was already non-finite).
// Per element it is roundHalf + FromFloats + an Inf/NaN check in one pass,
// bit-for-bit (pinned by TestHalfFusedPathsMatchReference); the overflow
// flag drives dynamic loss scaling.
func (b HalfBuffer) FromFloatsRound(src []float32) bool {
	if len(b) != len(src) {
		panic("tensor: HalfBuffer.FromFloatsRound length mismatch")
	}
	return fromFloatsRoundImpl(b, src)
}

// fromFloatsRoundScalar is the portable FromFloatsRound body and the
// amd64 tail.
func fromFloatsRoundScalar(b HalfBuffer, src []float32) bool {
	overflow := false
	for i, f := range src {
		u := math.Float32bits(f)
		sign16 := uint16(u>>16) & halfSignMask
		sign := u & 0x80000000
		em := u & 0x7fffffff
		switch {
		case em >= 0x47800000: // rounds past MaxHalf, Inf, or NaN
			overflow = true
			if em > 0x7f800000 {
				b[i] = Half(sign16 | halfNaN)
				src[i] = math.Float32frombits(sign | 0x7fc00000)
			} else {
				b[i] = Half(sign16 | halfPosInf)
				src[i] = math.Float32frombits(sign | 0x7f800000)
			}
		case em >= 0x38800000: // fp16 normal: rebias, round, pack
			em += 0xfff + (em >> 13 & 1)
			if em >= 0x47800000 { // carry rounded up to 2¹⁶ → fp16 Inf
				overflow = true
				b[i] = Half(sign16 | halfPosInf)
				src[i] = math.Float32frombits(sign | 0x7f800000)
				continue
			}
			b[i] = Half(sign16 | uint16((em-0x38000000)>>13))
			src[i] = math.Float32frombits(sign | em&^0x1fff)
		default: // fp16 subnormal or zero
			s := math.Float32frombits(em) + 0.5
			b[i] = Half(sign16 | uint16(math.Float32bits(s)-0x3f000000))
			src[i] = math.Float32frombits(math.Float32bits(s-0.5) | sign)
		}
	}
	return overflow
}

// RoundHalfCheck is roundHalf with overflow detection: it rounds x through
// binary16 in place and reports whether any element left the finite fp16
// range. Used where the fp16 compute path keeps an fp32-resident tensor
// (master-copy writeback) but still needs the loss-scaling overflow signal.
func RoundHalfCheck(x []float32) bool {
	return roundHalfCheckImpl(x)
}

// roundHalfCheckScalar is the portable RoundHalfCheck body and the amd64
// tail.
func roundHalfCheckScalar(x []float32) bool {
	overflow := false
	for i, f := range x {
		u := math.Float32bits(f)
		sign := u & 0x80000000
		em := u & 0x7fffffff
		switch {
		case em >= 0x47800000: // rounds past MaxHalf, Inf, or NaN
			overflow = true
			if em > 0x7f800000 {
				x[i] = math.Float32frombits(sign | 0x7fc00000)
			} else {
				x[i] = math.Float32frombits(sign | 0x7f800000)
			}
		case em >= 0x38800000: // fp16 normal: mask the rounded bits in place
			em += 0xfff + (em >> 13 & 1)
			if em >= 0x47800000 { // carry rounded up to 2¹⁶ → fp16 Inf
				overflow = true
				x[i] = math.Float32frombits(sign | 0x7f800000)
				continue
			}
			x[i] = math.Float32frombits(sign | em&^0x1fff)
		default: // fp16 subnormal or zero
			s := math.Float32frombits(em) + 0.5
			x[i] = math.Float32frombits(math.Float32bits(s-0.5) | sign)
		}
	}
	return overflow
}

// Floats returns a freshly allocated fp32 expansion of b.
func (b HalfBuffer) Floats() []float32 {
	out := make([]float32, len(b))
	b.ToFloats(out)
	return out
}
