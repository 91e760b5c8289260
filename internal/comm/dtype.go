package comm

import "repro/internal/tensor"

// DType names the wire storage width of a buffer. The simulator's arithmetic
// is always float32 (exactly like fp32 accumulation on tensor cores); the
// dtype decides how many bytes each element occupies on the wire, which is
// what Stats records. F16 corresponds to tensor.Half storage — §3.1's
// mixed-precision convention where parameters, gradients and activations
// travel as 2-byte fp16 while masters stay fp32.
type DType uint8

const (
	// F32 is 4-byte IEEE-754 binary32, the default wire width.
	F32 DType = iota
	// F16 is 2-byte IEEE-754 binary16 (tensor.Half) wire storage.
	F16
)

// Bytes returns the storage width of one element.
func (d DType) Bytes() int {
	if d == F16 {
		return tensor.BytesPerHalf
	}
	return tensor.BytesPerFloat32
}

func (d DType) String() string {
	if d == F16 {
		return "f16"
	}
	return "f32"
}

// Buffer is a typed collective payload: the data plus the dtype it occupies
// on the wire. Collectives on a Stream take Buffers so traffic is
// byte-accounted natively. There are two kinds. A float buffer (Data) is what
// every reduction takes: the values stay float32 and the dtype is accounting
// only — the caller rounds them through binary16 when they stand for fp16
// storage (the trainer's gradients). A half buffer (Half, built by HalfBuf)
// holds already-encoded binary16 elements and is moved as such, 2 bytes per
// element through the wire pool; only all-gathers accept it, since halves
// are never summed.
type Buffer struct {
	Data  []float32
	Half  tensor.HalfBuffer // when non-nil, the payload; DType is then F16
	DType DType
}

// F32Buf wraps x as an fp32-wire buffer.
func F32Buf(x []float32) Buffer { return Buffer{Data: x, DType: F32} }

// F16Buf wraps x as an fp16-wire buffer.
func F16Buf(x []float32) Buffer { return Buffer{Data: x, DType: F16} }

// HalfBuf wraps encoded fp16 elements as a half payload.
func HalfBuf(h tensor.HalfBuffer) Buffer { return Buffer{Half: h, DType: F16} }

// Len returns the element count.
func (b Buffer) Len() int { return len(b.Data) + len(b.Half) }

// Slice returns elements [lo, hi) of b, of the same kind and dtype.
func (b Buffer) Slice(lo, hi int) Buffer {
	if b.Half != nil {
		b.Half = b.Half[lo:hi]
	} else {
		b.Data = b.Data[lo:hi]
	}
	return b
}

// Bytes returns the wire size of the whole buffer.
func (b Buffer) Bytes() int64 { return int64(b.Len()) * int64(b.DType.Bytes()) }

// floats returns the float32 payload for a reduction, which a half buffer
// does not have.
func (b Buffer) floats() []float32 {
	if b.Half != nil {
		panic("comm: a half buffer can only be all-gathered (sums accumulate in float32)")
	}
	return b.Data
}
