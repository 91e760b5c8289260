// Package device simulates a GPU's device memory: a capacity-bounded flat
// address space managed by a caching allocator modeled on the PyTorch CUDA
// allocator the paper trained against.
//
// The simulation reproduces the two failure modes ZeRO-R's memory
// defragmentation (MD) targets (§6.3):
//
//  1. OOM from fragmentation: an allocation fails when no *contiguous*
//     region is large enough, even though total free memory exceeds the
//     request ("over 30% of memory still available in some extreme cases").
//  2. Allocator cache growth: freed blocks are cached rather than returned,
//     so "max cache allocated" (Figure 7) exceeds live memory.
//
// The allocator keeps an address-ordered segment list with three states
// (used, cached, free). Alloc prefers a best-fit cached block (a cache hit,
// like PyTorch reusing a cudaMalloc'd segment), then carves from virgin
// address space; on failure it flushes the cache (cudaEmptyCache) and
// retries before reporting OOM.
//
// Surface: New builds a Device (Alloc, Free, Release, NewRegion, Stats,
// Validate); a Region is a bump-allocated block (Alloc, Close); an
// allocation failure is an OOMError wrapping ErrOOM. Imported by
// internal/experiments (Figure 7's replay).
package device

import (
	"errors"
	"fmt"
	"sort"
)

// ErrOOM is returned when an allocation cannot be satisfied even after
// flushing the allocator cache.
var ErrOOM = errors.New("device: out of memory")

// OOMError carries the diagnosis of a failed allocation: whether it was a
// true capacity exhaustion or a fragmentation failure (enough free bytes,
// no contiguous run).
type OOMError struct {
	Request     int64
	FreeTotal   int64 // free + cached bytes at failure time
	LargestFree int64 // largest contiguous free-or-cached run
	Fragmented  bool  // true when FreeTotal >= Request but LargestFree < Request
}

func (e *OOMError) Error() string {
	kind := "capacity"
	if e.Fragmented {
		kind = "fragmentation"
	}
	return fmt.Sprintf("device: out of memory (%s): request %d, free %d, largest contiguous %d",
		kind, e.Request, e.FreeTotal, e.LargestFree)
}

// Unwrap lets errors.Is(err, ErrOOM) match OOMError values.
func (e *OOMError) Unwrap() error { return ErrOOM }

type segState uint8

const (
	segFree segState = iota
	segCached
	segUsed
)

type segment struct {
	addr  int64
	size  int64
	state segState
}

// Block is a live allocation on the device.
type Block struct {
	Addr int64
	Size int64
}

// Stats is a snapshot of allocator state, in bytes.
type Stats struct {
	Capacity     int64
	InUse        int64 // live allocations
	Cached       int64 // freed blocks retained by the allocator
	Free         int64 // virgin / released address space
	PeakInUse    int64 // high-water mark of InUse
	PeakReserved int64 // high-water mark of InUse+Cached: PyTorch "max cache allocated"
	AllocCount   int64
	CacheHits    int64
	DefragCopies int64 // blocks routed through a contiguous region (MD)
}

// Device is one simulated GPU's memory.
type Device struct {
	capacity int64
	segs     []segment // address-ordered, covers [0, capacity)
	stats    Stats
}

// New creates a device with the given memory capacity in bytes.
func New(capacity int64) *Device {
	if capacity <= 0 {
		panic("device: capacity must be positive")
	}
	return &Device{
		capacity: capacity,
		segs:     []segment{{addr: 0, size: capacity, state: segFree}},
		stats:    Stats{Capacity: capacity},
	}
}

// Stats returns a snapshot of the allocator counters.
func (d *Device) Stats() Stats {
	s := d.stats
	s.InUse, s.Cached, s.Free = d.tally()
	return s
}

func (d *Device) tally() (used, cached, free int64) {
	for _, s := range d.segs {
		switch s.state {
		case segUsed:
			used += s.size
		case segCached:
			cached += s.size
		case segFree:
			free += s.size
		}
	}
	return
}

// largestContiguous returns the size of the largest contiguous run of
// free-or-cached memory — the biggest single allocation that could succeed
// after a cache flush.
func (d *Device) largestContiguous() int64 {
	var best, run int64
	for _, s := range d.segs {
		if s.state == segUsed {
			if run > best {
				best = run
			}
			run = 0
			continue
		}
		run += s.size
	}
	if run > best {
		best = run
	}
	return best
}

// Alloc reserves size bytes and returns the block, or an *OOMError.
func (d *Device) Alloc(size int64) (Block, error) {
	if size <= 0 {
		panic("device: Alloc size must be positive")
	}
	d.stats.AllocCount++
	// 1. Best-fit cached block (cache hit).
	if i := d.bestFit(segCached, size); i >= 0 {
		d.stats.CacheHits++
		return d.claim(i, size), nil
	}
	// 2. First-fit virgin space.
	if i := d.firstFit(segFree, size); i >= 0 {
		return d.claim(i, size), nil
	}
	// 3. Flush cache (cudaEmptyCache) and retry, like PyTorch on OOM.
	d.emptyCache()
	if i := d.firstFit(segFree, size); i >= 0 {
		return d.claim(i, size), nil
	}
	_, cached, free := d.tally()
	freeTotal := cached + free
	return Block{}, &OOMError{
		Request:     size,
		FreeTotal:   freeTotal,
		LargestFree: d.largestContiguous(),
		Fragmented:  freeTotal >= size,
	}
}

// Free releases a block into the allocator cache (it stays reserved, as on
// a real GPU, until emptyCache or an OOM-triggered flush).
func (d *Device) Free(b Block) {
	i := d.findUsed(b)
	d.segs[i].state = segCached
	d.coalesce(i, segCached)
}

// Release returns a block directly to virgin free space, bypassing the
// cache. Used by the MD contiguous regions, whose lifetime is managed
// explicitly.
func (d *Device) Release(b Block) {
	i := d.findUsed(b)
	d.segs[i].state = segFree
	d.coalesce(i, segFree)
}

// emptyCache converts all cached segments to free and coalesces.
func (d *Device) emptyCache() {
	for i := range d.segs {
		if d.segs[i].state == segCached {
			d.segs[i].state = segFree
		}
	}
	d.coalesceAll()
}

func (d *Device) findUsed(b Block) int {
	i := sort.Search(len(d.segs), func(i int) bool { return d.segs[i].addr >= b.Addr })
	if i == len(d.segs) || d.segs[i].addr != b.Addr || d.segs[i].state != segUsed || d.segs[i].size != b.Size {
		panic(fmt.Sprintf("device: Free of unknown block {addr:%d size:%d}", b.Addr, b.Size))
	}
	return i
}

// bestFit returns the index of the smallest segment in the given state with
// size >= want, or -1.
func (d *Device) bestFit(st segState, want int64) int {
	best, bestSize := -1, int64(-1)
	for i, s := range d.segs {
		if s.state == st && s.size >= want && (best == -1 || s.size < bestSize) {
			best, bestSize = i, s.size
		}
	}
	return best
}

// firstFit returns the lowest-address segment in the given state with
// size >= want, or -1.
func (d *Device) firstFit(st segState, want int64) int {
	for i, s := range d.segs {
		if s.state == st && s.size >= want {
			return i
		}
	}
	return -1
}

// claim converts segment i (free or cached) into a used block of exactly
// size bytes, splitting off any remainder in the segment's previous state.
func (d *Device) claim(i int, size int64) Block {
	s := d.segs[i]
	if s.size > size {
		rest := segment{addr: s.addr + size, size: s.size - size, state: s.state}
		d.segs[i].size = size
		d.segs = append(d.segs, segment{})
		copy(d.segs[i+2:], d.segs[i+1:])
		d.segs[i+1] = rest
	}
	d.segs[i].state = segUsed
	d.updatePeaks()
	return Block{Addr: s.addr, Size: size}
}

func (d *Device) updatePeaks() {
	used, cached, _ := d.tally()
	if used > d.stats.PeakInUse {
		d.stats.PeakInUse = used
	}
	if used+cached > d.stats.PeakReserved {
		d.stats.PeakReserved = used + cached
	}
}

// coalesce merges segment i with address-adjacent neighbors in the same
// state.
func (d *Device) coalesce(i int, st segState) {
	// Merge with successor first so index i stays valid.
	if i+1 < len(d.segs) && d.segs[i+1].state == st {
		d.segs[i].size += d.segs[i+1].size
		d.segs = append(d.segs[:i+1], d.segs[i+2:]...)
	}
	if i > 0 && d.segs[i-1].state == st {
		d.segs[i-1].size += d.segs[i].size
		d.segs = append(d.segs[:i], d.segs[i+1:]...)
	}
}

func (d *Device) coalesceAll() {
	out := d.segs[:0]
	for _, s := range d.segs {
		if n := len(out); n > 0 && out[n-1].state == s.state && s.state != segUsed {
			out[n-1].size += s.size
			continue
		}
		out = append(out, s)
	}
	d.segs = out
}

// resetPeaks clears the high-water marks (PyTorch
// reset_max_memory_allocated/cached), so per-iteration peaks can be measured.
func (d *Device) resetPeaks() {
	used, cached, _ := d.tally()
	d.stats.PeakInUse = used
	d.stats.PeakReserved = used + cached
}

// checkInvariants verifies the segment list covers [0, capacity) with no
// gaps or overlaps. Exposed for tests via Validate.
func (d *Device) checkInvariants() error {
	var addr int64
	for _, s := range d.segs {
		if s.addr != addr {
			return fmt.Errorf("device: segment gap/overlap at %d (expected %d)", s.addr, addr)
		}
		if s.size <= 0 {
			return fmt.Errorf("device: empty segment at %d", s.addr)
		}
		addr += s.size
	}
	if addr != d.capacity {
		return fmt.Errorf("device: segments cover %d of %d bytes", addr, d.capacity)
	}
	return nil
}

// Validate returns an error if the allocator's internal invariants are
// violated.
func (d *Device) Validate() error { return d.checkInvariants() }
