// Package arena provides size-classed, reusable scratch buffers —
// the allocation discipline behind the repo's zero-allocation steady state.
//
// ZeRO's whole argument (§3, §5) is that the memory you do not allocate is
// what buys scale; the same discipline applies to the simulator's hot loop.
// Every per-step transient — collective wire copies, reduce/gather scratch,
// staging buffers — draws from an Arena instead of `make`, so after a
// warm-up step the steady-state training loop performs no heap allocation
// and pays no GC tax. Unlike sync.Pool, an Arena never gives buffers back
// to the garbage collector behind the caller's back: allocation counts are
// deterministic, which is what lets the benchmark suite gate allocs/op as a
// hard regression signal.
//
// Ownership rules:
//
//   - Get(n) returns a buffer of length n whose contents are UNDEFINED
//     (reused buffers carry stale values). Callers must fully overwrite it
//     (or explicitly zero it first when the algorithm accumulates).
//   - Put returns a buffer to the arena; the caller must not touch it
//     afterwards. Put is optional — a buffer that escapes (e.g. handed to
//     user code) is simply garbage-collected like any other slice.
//   - Release drops every pooled buffer, returning the memory to the GC —
//     the teardown hook that keeps sequential trainers in one process from
//     double-residenting their workspaces.
//
// An Arena is safe for concurrent use: one instance serves all ranks of an
// in-process world.
//
// Surface: the generic Arena and New, with Get, Put, Release, Resident and
// Stats. internal/comm draws its wire copies from an Arena[float32],
// internal/data its token buffers from an Arena[int] and internal/zero its
// checkpoint encode buffers from an Arena[byte]; zero's teardown test
// reads the wire pool's residency through comm.World.WirePool.
package arena

import (
	"math/bits"
	"sync"
	"unsafe"
)

// numClasses covers buffer capacities up to 2^(numClasses-1) elements.
const numClasses = 40

// Arena is a size-classed free list of []T buffers: float32 for the wire
// copies and scratch of the collectives, int for the data pipeline's token
// slices and batch buffers, byte for the checkpoint writers' encode
// buffers. The zero value is ready to use.
type Arena[T float32 | int | byte] struct {
	mu      sync.Mutex
	classes [numClasses][][]T

	resident int64 // bytes currently pooled (free, reusable)
	gets     int64 // total Get calls
	misses   int64 // Get calls that had to allocate
}

// New returns an empty arena.
func New[T float32 | int | byte]() *Arena[T] { return &Arena[T]{} }

// width is the byte size of one element.
func (a *Arena[T]) width() int64 {
	var zero T
	return int64(unsafe.Sizeof(zero))
}

// class returns the size-class index for n elements: buffers are rounded up
// to the next power of two so a handful of lists serve every request size.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a buffer of length n (capacity rounded up to the size class).
// Contents are undefined; see the package comment for ownership rules.
// Get(0) returns nil.
func (a *Arena[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	cls := class(n)
	a.mu.Lock()
	a.gets++
	list := a.classes[cls]
	if len(list) > 0 {
		b := list[len(list)-1]
		a.classes[cls] = list[:len(list)-1]
		a.resident -= int64(cap(b)) * a.width()
		a.mu.Unlock()
		return b[:n]
	}
	a.misses++
	a.mu.Unlock()
	return make([]T, n, 1<<cls)
}

// Put returns a buffer to the arena for reuse. Buffers whose capacity is not
// a size-class width (i.e. that did not come from Get) are dropped rather
// than pooled, so a stray Put cannot poison a class with short buffers.
// Put(nil) and Put of empty buffers are no-ops.
func (a *Arena[T]) Put(b []T) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	a.mu.Lock()
	a.classes[cls] = append(a.classes[cls], b[:0])
	a.resident += int64(c) * a.width()
	a.mu.Unlock()
}

// Release drops every pooled buffer, handing the memory back to the GC.
func (a *Arena[T]) Release() {
	a.mu.Lock()
	for i := range a.classes {
		a.classes[i] = nil
	}
	a.resident = 0
	a.mu.Unlock()
}

// Resident returns the bytes currently pooled (free buffers held for reuse).
func (a *Arena[T]) Resident() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resident
}

// Stats returns cumulative Get calls and the subset that had to allocate.
// A warmed steady state shows gets rising with misses flat — the measurable
// form of "the hot loop no longer allocates".
func (a *Arena[T]) Stats() (gets, misses int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.misses
}
