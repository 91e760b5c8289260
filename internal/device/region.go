package device

import "fmt"

// Region is a pre-allocated contiguous chunk of device memory managed as a
// bump allocator. It implements ZeRO-R's memory defragmentation (MD, §6.3):
// long-lived tensors (activation checkpoints during forward, parameter
// gradients during backward) are copied into pre-allocated contiguous
// buffers instead of interleaving with short-lived tensors in the general
// heap, so the general heap never fragments around them.
type Region struct {
	dev   *Device
	block Block
	used  int64
	peak  int64
}

// NewRegion carves a contiguous region of the given size out of the device.
// Allocate MD regions before training begins, while the address space is
// still unfragmented.
func (d *Device) NewRegion(size int64) (*Region, error) {
	b, err := d.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("device: MD region of %d bytes: %w", size, err)
	}
	return &Region{dev: d, block: b}, nil
}

// Alloc bump-allocates size bytes inside the region. Unlike Device.Alloc,
// this can never fragment: the region is one block and reset wholesale.
func (r *Region) Alloc(size int64) (Block, error) {
	if size <= 0 {
		panic("device: Region.Alloc size must be positive")
	}
	if r.used+size > r.block.Size {
		return Block{}, &OOMError{
			Request:     size,
			FreeTotal:   r.block.Size - r.used,
			LargestFree: r.block.Size - r.used,
		}
	}
	b := Block{Addr: r.block.Addr + r.used, Size: size}
	r.used += size
	if r.used > r.peak {
		r.peak = r.used
	}
	r.dev.stats.DefragCopies++
	return b, nil
}

// Close returns the region's memory to the device free space.
func (r *Region) Close() {
	r.dev.Release(r.block)
	r.block = Block{}
	r.used = 0
}
