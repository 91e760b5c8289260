package zero

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/testutil"
)

// checkpointStream builds a rank's Pa stream; defer the returned func
// inside the rank closure to close the scheduler and release the worker.
func checkpointStream(c *comm.Comm) (*comm.Stream, func()) {
	sched := comm.NewScheduler(c)
	return sched.Stream(StreamCheckpoint), sched.Close
}

func TestInlineStoreRoundTrip(t *testing.T) {
	s := newInlineStore()
	x := []float32{1, 2, 3}
	s.Put(0, x)
	x[0] = 99 // the store must have copied
	got := s.Get(0)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Get(0) = %v", got)
	}
	if s.DeviceBytes() != 6 {
		t.Errorf("DeviceBytes = %d, want 6 (fp16 accounting)", s.DeviceBytes())
	}
	// Re-Put replaces, not accumulates.
	s.Put(0, []float32{4, 5})
	if s.DeviceBytes() != 4 {
		t.Errorf("DeviceBytes after replace = %d, want 4", s.DeviceBytes())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing layer")
		}
	}()
	s.Get(7)
}

// A store on a scheduler over a subgroup partitions across the group, not
// the world: the stream reports group-local rank and size. A 4-rank world
// in MP pairs must split 8 elements into 2 parts per pair and gather them
// back; reading the world's rank and size instead panics inside the stream
// worker, which takes the whole process down.
func TestPartitionedStoreOnSubgroupScheduler(t *testing.T) {
	const n, mp, elems = 4, 2, 8
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		g, err := c.MPGroup(mp)
		if err != nil {
			t.Error(err)
			return
		}
		st, closeSched := checkpointStream(g)
		defer closeSched()
		if st.Rank() != g.Rank() || st.Size() != mp {
			t.Errorf("rank %d: stream rank/size %d/%d, want the group's %d/%d", c.Rank(), st.Rank(), st.Size(), g.Rank(), mp)
			return
		}
		ckpt := make([]float32, elems)
		for i := range ckpt {
			ckpt[i] = float32(c.Rank()/mp*100 + i) // replicated within each pair
		}
		s := NewPartitionedStore(st, false)
		s.Put(0, ckpt)
		if got, want := s.DeviceBytes(), int64(2*elems/mp); got != want {
			t.Errorf("rank %d: %d device bytes, want a 1/%d shard's %d", c.Rank(), got, mp, want)
		}
		if got := s.Get(0); !slices.Equal(got, ckpt) {
			t.Errorf("rank %d: gathered %v, want %v", c.Rank(), got, ckpt)
		}
	})
}

// Pa round trip: with identical (MP-replicated) checkpoints on every rank,
// partition-then-gather must reconstruct the original exactly, while each
// rank holds only 1/Nm of it (§6.1).
func TestPartitionedStoreRoundTrip(t *testing.T) {
	const n, elems = 4, 103
	ckpt := make([]float32, elems)
	for i := range ckpt {
		ckpt[i] = float32(i) * 0.5
	}
	w := comm.NewWorld(n)
	var mu sync.Mutex
	w.Run(func(c *comm.Comm) {
		st, closeSched := checkpointStream(c)
		defer closeSched()
		s := NewPartitionedStore(st, false)
		s.Put(3, ckpt)
		// Resident share ≈ total/Nm.
		maxShard := int64((elems/n + 1) * 2)
		if s.DeviceBytes() > maxShard {
			mu.Lock()
			t.Errorf("rank %d holds %d bytes, want ≤ %d (1/Nm of checkpoint)",
				c.Rank(), s.DeviceBytes(), maxShard)
			mu.Unlock()
		}
		got := s.Get(3)
		if d := testutil.MaxDiff(got, ckpt); d != 0 {
			mu.Lock()
			t.Errorf("rank %d: reconstruction differs by %g", c.Rank(), d)
			mu.Unlock()
		}
		if s.hostBytes != 0 || s.pcieBytes != 0 {
			mu.Lock()
			t.Errorf("rank %d: Pa (non-cpu) should not touch host memory", c.Rank())
			mu.Unlock()
		}
	})
}

// Pa+cpu: device-resident checkpoint bytes are zero, the shard lives on the
// host, and the PCIe traffic is exactly 2× the shard (out and back, §8).
func TestPartitionedStoreCPUOffload(t *testing.T) {
	const n, elems = 2, 64
	ckpt := make([]float32, elems)
	for i := range ckpt {
		ckpt[i] = float32(i)
	}
	w := comm.NewWorld(n)
	var mu sync.Mutex
	w.Run(func(c *comm.Comm) {
		st, closeSched := checkpointStream(c)
		defer closeSched()
		s := NewPartitionedStore(st, true)
		s.Put(0, ckpt)
		got := s.Get(0)
		mu.Lock()
		defer mu.Unlock()
		if d := testutil.MaxDiff(got, ckpt); d != 0 {
			t.Errorf("rank %d: reconstruction differs by %g", c.Rank(), d)
		}
		if s.DeviceBytes() != 0 {
			t.Errorf("rank %d: Pa+cpu device bytes = %d, want 0", c.Rank(), s.DeviceBytes())
		}
		shardBytes := int64(elems / n * 2)
		if s.hostBytes != shardBytes {
			t.Errorf("rank %d: host bytes = %d, want %d", c.Rank(), s.hostBytes, shardBytes)
		}
		if s.pcieBytes != 2*shardBytes {
			t.Errorf("rank %d: PCIe bytes = %d, want %d (2x shard)", c.Rank(), s.pcieBytes, 2*shardBytes)
		}
	})
}

// End-to-end Pa: a model trained with checkpoints routed through a
// PartitionedStore (ranks running replicated compute, as an MP group does
// for activations) must match inline checkpointing and the run without
// checkpointing bitwise, in both precisions. Under fp16 compute a store
// receives the rounded fp32 image of each block input, so Pa's checkpoint
// stream carries what it carries in fp32: one all-gather of the M·h block
// input per block, accounted at 2 B/elem.
func TestPaTrainingMatchesInline(t *testing.T) {
	cfg := model.Config{Layers: 3, Hidden: 16, Heads: 2, Vocab: 17, Seq: 8}
	const n, batch = 4, 2
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	step := func(fp16 bool, store model.CheckpointStore) (float64, []float32) {
		m := model.New(cfg, 5)
		if fp16 {
			m.SetFP16Compute(true)
			m.LossScale = 1024
		}
		m.Checkpoint, m.Store = store != nil, store
		m.ZeroGrads()
		loss := m.Loss(ids, targets, batch)
		m.Backward()
		return loss, m.Grads
	}

	var paElems [2]int64
	for i, fp16 := range []bool{false, true} {
		refLoss, refGrads := step(fp16, nil)
		if loss, grads := step(fp16, newInlineStore()); loss != refLoss || !slices.Equal(grads, refGrads) {
			t.Errorf("fp16=%v inline: loss %v (want %v), gradients equal: %v",
				fp16, loss, refLoss, slices.Equal(grads, refGrads))
		}
		// MP-replicated group: every rank runs the same data through the
		// same model, checkpoints partitioned across the group.
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			st, closeSched := checkpointStream(c)
			defer closeSched()
			loss, grads := step(fp16, NewPartitionedStore(st, false))
			if loss != refLoss || !slices.Equal(grads, refGrads) {
				t.Errorf("fp16=%v rank %d Pa: loss %v (want %v), gradients equal: %v",
					fp16, c.Rank(), loss, refLoss, slices.Equal(grads, refGrads))
			}
		})
		st := w.Stats(0)
		paElems[i] = st.PerStream[StreamCheckpoint]
		if st.BytesSent != 2*st.ElemsSent {
			t.Errorf("fp16=%v: Pa sent %d bytes for %d elems, want 2 B/elem", fp16, st.BytesSent, st.ElemsSent)
		}
	}
	if want := int64(cfg.Layers * batch * cfg.Seq * cfg.Hidden * (n - 1) / n); paElems != [2]int64{want, want} {
		t.Errorf("Pa checkpoint elems per rank (fp32, fp16) = %v, want %d each", paElems, want)
	}
}

// §8 volume identity: re-materializing a checkpoint of E elements costs one
// all-gather = E(Nm-1)/Nm sent per rank, i.e. 1/12 of the Megatron MP
// traffic for the same block — "less than one tenth".
func TestPaGatherVolume(t *testing.T) {
	const n = 4
	const elems = 1200
	ckpt := make([]float32, elems)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		st, closeSched := checkpointStream(c)
		defer closeSched()
		s := NewPartitionedStore(st, false)
		s.Put(0, ckpt)
		s.Get(0)
	})
	want := int64(elems * (n - 1) / n)
	for r := 0; r < n; r++ {
		if got := w.Stats(r).ElemsSent; got != want {
			t.Errorf("rank %d sent %d elems, want %d (= E(Nm-1)/Nm)", r, got, want)
		}
	}
}

// inlineStore keeps checkpoints on-device, unpartitioned — baseline
// activation checkpointing. It also serves as the memory-accounting
// reference for Pa.
type inlineStore struct {
	ckpts map[int][]float32
	bytes int64
}

// newInlineStore returns an empty inline checkpoint store.
func newInlineStore() *inlineStore {
	return &inlineStore{ckpts: make(map[int][]float32)}
}

// Put stores a copy of the checkpoint, reusing the previous step's buffer
// when the shape is unchanged (the steady-state case).
func (s *inlineStore) Put(layer int, x []float32) {
	old, ok := s.ckpts[layer]
	if ok && len(old) == len(x) {
		copy(old, x)
		return
	}
	if ok {
		s.bytes -= int64(len(old)) * 2
	}
	s.ckpts[layer] = append([]float32(nil), x...)
	s.bytes += int64(len(x)) * 2
}

// Get returns the stored checkpoint.
func (s *inlineStore) Get(layer int) []float32 {
	x, ok := s.ckpts[layer]
	if !ok {
		panic(fmt.Sprintf("zero: no checkpoint for layer %d", layer))
	}
	return x
}

// DeviceBytes returns the resident device memory (fp16 accounting).
func (s *inlineStore) DeviceBytes() int64 { return s.bytes }
