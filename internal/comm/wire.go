package comm

import (
	"unsafe"

	"repro/internal/tensor"
)

// elem is the set of element types a link carries: float32 for everything
// that is summed, tensor.Half for fp16 parameters, which are only ever moved.
type elem interface{ float32 | tensor.Half }

// wireMsg is one message on a link: storage drawn from the world's wire pool
// plus the number of elements packed into it. The pool is float32-typed, so a
// message of n halves occupies ⌈n/2⌉ pool words — fp16 traffic really is
// copied at 2 bytes per element, the width Stats records for it.
//
// A ring message is also stamped with its chunk's offset and the length of
// the buffer it was cut from. Empty chunks are never sent, so a receiver
// whose buffer disagrees with its neighbour's would otherwise pair one
// chunk's message with another chunk; the stamp makes it panic instead.
type wireMsg struct {
	words      []float32
	elems      int
	off, total int
}

// wireWords returns the pool words n elements of type T occupy.
func wireWords[T elem](n int) int {
	var z T
	return (n*int(unsafe.Sizeof(z)) + 3) / 4
}

// wireView reinterprets the first n elements' worth of pool words as []T.
// Both element types are plain bit patterns no wider or more aligned than
// the float32 words underneath, so the view is always in bounds and aligned.
func wireView[T elem](words []float32, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(words))), n)
}
