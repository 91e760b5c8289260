package zero

import (
	"fmt"

	"repro/internal/comm"
)

// ZeRO-R: residual-memory optimizations (§6).
//
// Pa — partitioned activation checkpointing — exploits the fact that
// Megatron-style model parallelism replicates activations across the MP
// group: after a block's forward pass, each MP rank keeps only a 1/Nm slice
// of the checkpoint, and an all-gather re-materializes it right before the
// block's recomputation during backward (§6.1). Pa+cpu additionally moves
// the slice to host memory, making the device-resident checkpoint footprint
// ~zero at the cost of PCIe traffic (§8).
//
// PartitionedStore implements Pa and Pa+cpu over a comm group in which
// activations are replicated (the MP group); without a store the model
// keeps plain activation checkpoints in its own inline slot.
//
// PartitionedStore runs on its own comm.Stream — by convention named
// StreamCheckpoint — so its all-gathers form an ordering domain separate
// from gradient reduction and parameter prefetch: Pa composes with the
// overlapped backward schedule instead of disabling it (the pre-stream
// API forced mutual exclusion because a second collective user on the
// same communicator would scramble ring pairing).

// PartitionedStore implements Pa and Pa+cpu. The stream's world must be one
// in which every rank Puts identical checkpoint values (in the paper: the
// MP group, whose activations are replicated by construction). Each rank
// retains only its partition; Get all-gathers the full checkpoint back on
// the store's stream, synchronizing per-op with the returned Handle.
type PartitionedStore struct {
	st      *comm.Stream
	offload bool // Pa+cpu: shards live in host memory

	shards map[int][]float32
	sizes  map[int]int
	parts  map[int][]comm.Range
	full   map[int][]float32 // per-layer gather buffers, reused across steps

	deviceBytes int64
	hostBytes   int64
	pcieBytes   int64 // cumulative host<->device traffic
}

// NewPartitionedStore creates a Pa store whose gathers run on st — its own
// ordering domain, conventionally sched.Stream(StreamCheckpoint);
// offloadCPU selects Pa+cpu. Checkpoints travel as fp16 on the wire (the
// §3.1 activation storage format), so Stats counts 2 bytes per element.
func NewPartitionedStore(st *comm.Stream, offloadCPU bool) *PartitionedStore {
	return &PartitionedStore{
		st:      st,
		offload: offloadCPU,
		shards:  make(map[int][]float32),
		sizes:   make(map[int]int),
		parts:   make(map[int][]comm.Range),
		full:    make(map[int][]float32),
	}
}

// Put partitions the checkpoint across the group and keeps this rank's
// slice (on host under Pa+cpu). On the steady-state path (same layer, same
// shape as the previous step) the shard buffer and partition are reused.
func (s *PartitionedStore) Put(layer int, x []float32) {
	parts := s.parts[layer]
	if s.sizes[layer] != len(x) || parts == nil {
		parts = comm.Partition(len(x), s.st.Size())
	}
	own := parts[s.st.Rank()]
	old, ok := s.shards[layer]
	if ok && len(old) == own.Len() && s.sizes[layer] == len(x) {
		copy(old, x[own.Lo:own.Hi])
		s.pcieAccount(int64(len(old)) * 2)
		return
	}
	shard := append([]float32(nil), x[own.Lo:own.Hi]...)
	if ok {
		if s.offload {
			s.hostBytes -= int64(len(old)) * 2
		} else {
			s.deviceBytes -= int64(len(old)) * 2
		}
	}
	s.shards[layer] = shard
	s.sizes[layer] = len(x)
	s.parts[layer] = parts
	bytes := int64(len(shard)) * 2
	if s.offload {
		s.hostBytes += bytes
	} else {
		s.deviceBytes += bytes
	}
	s.pcieAccount(bytes)
}

// pcieAccount records the device → host copy of one Put under Pa+cpu.
func (s *PartitionedStore) pcieAccount(bytes int64) {
	if s.offload {
		s.pcieBytes += bytes
	}
}

// Get re-materializes the full checkpoint with an all-gather on the
// checkpoint stream (plus a host→device copy first under Pa+cpu). The
// per-op Handle is waited here — Get is synchronous to its caller, but its
// wire traffic interleaves freely with whatever the grad and prefetch
// streams have in flight.
func (s *PartitionedStore) Get(layer int) []float32 {
	shard, ok := s.shards[layer]
	if !ok {
		panic(fmt.Sprintf("zero: no checkpoint shard for layer %d", layer))
	}
	if s.offload {
		s.pcieBytes += int64(len(shard)) * 2 // host → device before gather
	}
	full := s.full[layer]
	if len(full) != s.sizes[layer] {
		full = make([]float32, s.sizes[layer])
		s.full[layer] = full
	}
	parts := s.parts[layer]
	own := parts[s.st.Rank()]
	copy(full[own.Lo:own.Hi], shard)
	s.st.AllGather(comm.F16Buf(full), parts).Wait()
	return full
}

// DeviceBytes returns resident device checkpoint memory: the full footprint
// divided by the MP degree under Pa, ~0 under Pa+cpu (§6.1).
func (s *PartitionedStore) DeviceBytes() int64 { return s.deviceBytes }
