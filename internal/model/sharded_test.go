package model

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
)

var shardCfg = Config{Layers: 2, Hidden: 16, Heads: 4, Vocab: 19, Seq: 8}

// runSharded runs fn on every rank of an n-rank MP group, each holding its
// NewSharded(cfg, seed) shard.
func runSharded(n int, cfg Config, seed int64, fn func(c *comm.Comm, m *Model)) *comm.World {
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) { fn(c, NewSharded(cfg, seed, c)) })
	return w
}

// At MP degree 1 — a nil reducer or a one-rank group — NewSharded is New:
// the same parameters, loss and gradients, bit for bit.
func TestNewShardedDegreeOneIsNew(t *testing.T) {
	ids, targets := SyntheticBatch(3, 2, shardCfg.Seq, shardCfg.Vocab)
	ref := New(shardCfg, 5)
	ref.Checkpoint = true
	refLoss := ref.Loss(ids, targets, 2)
	ref.Backward()
	check := func(name string, m *Model) {
		m.Checkpoint = true
		if l := m.Loss(ids, targets, 2); l != refLoss {
			t.Errorf("%s: loss %v != New's %v", name, l, refLoss)
		}
		m.Backward()
		if d := tensor.MaxDiff(m.Grads, ref.Grads); d != 0 || len(m.Grads) != len(ref.Grads) {
			t.Errorf("%s: grads differ from New's by %g", name, d)
		}
	}
	check("nil reducer", NewSharded(shardCfg, 5, nil))
	runSharded(1, shardCfg, 5, func(_ *comm.Comm, m *Model) { check("1-rank group", m) })
}

// A degree-4 shard's Loss+Backward allocates nothing after warm-up: the
// block runs on the model workspace and the all-reduces on pooled wire
// buffers. Counted like internal/zero/alloc_test.go, with its slack for
// wire-pool high-water drift.
func TestShardedStepAllocations(t *testing.T) {
	const n, batch, warm, steps, slack = 4, 2, 3, 6, 8
	ids, targets := SyntheticBatch(1, batch, shardCfg.Seq, shardCfg.Vocab)
	var perStep float64
	runSharded(n, shardCfg, 1, func(c *comm.Comm, m *Model) {
		m.Checkpoint = true
		step := func() {
			m.Loss(ids, targets, batch)
			m.Backward()
		}
		for i := 0; i < warm; i++ {
			step()
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < steps; i++ {
			step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perStep = float64(m1.Mallocs-m0.Mallocs) / steps
		}
		c.Barrier()
	})
	if perStep > slack {
		t.Errorf("steady-state sharded step allocates %.1f objects (budget 0, slack %d)", perStep, slack)
	}
}

// The fp16 layout has no MP path: SetFP16Compute panics on a shard. (The
// Megatron tests proper are in internal/mp.)
func TestShardedFP16ComputePanics(t *testing.T) {
	comm.NewWorld(2).Run(func(c *comm.Comm) {
		m := NewSharded(shardCfg, 1, c)
		defer func() {
			if recover() == nil {
				t.Error("expected panic: fp16 compute on a shard")
			}
		}()
		m.SetFP16Compute(true)
	})
}
