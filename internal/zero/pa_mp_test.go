package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/testutil"
)

// These tests close the loop on §8 with the real Megatron-parallel model
// (model.NewSharded):
// under activation checkpointing a transformer block's measured MP traffic
// is exactly the 12·B·s·h of the paper's analysis (2 forward + 2 recompute
// + 2 backward all-reduces), and ZeRO-R's Pa — partitioning the block
// inputs across the MP group, which genuinely replicates them — adds
// exactly one all-gather per block, i.e. 1/12 of that.

const (
	paLayers = 2
	paHidden = 16
	paSeq    = 8
	paBatch  = 2
)

var paCfg = model.Config{Layers: paLayers, Hidden: paHidden, Heads: 4, Vocab: 17, Seq: paSeq}

// stepGPT runs one forward+backward of the sharded model on an n-rank MP
// group and returns the world for traffic inspection plus rank 0's grads.
func stepGPT(n int, checkpoint, pa bool) (*comm.World, []float32, float64) {
	ids, targets := model.SyntheticBatch(71, paBatch, paSeq, paCfg.Vocab)
	w := comm.NewWorld(n)
	var grads []float32
	var loss float64
	w.Run(func(c *comm.Comm) {
		m := model.NewSharded(paCfg, 23, c)
		m.Checkpoint = checkpoint
		if pa {
			st, closeSched := checkpointStream(c)
			defer closeSched()
			m.Store = NewPartitionedStore(st, false)
		}
		l := m.Loss(ids, targets, paBatch)
		m.Backward()
		if c.Rank() == 0 {
			grads, loss = m.Grads, l
		}
	})
	return w, grads, loss
}

// Checkpointed training of the sharded model is numerically identical to
// vanilla (it recomputes the same floats), with or without Pa.
func TestGPTCheckpointAndPaAreNumericallyNeutral(t *testing.T) {
	_, vanilla, lossV := stepGPT(4, false, false)
	_, ckpt, lossC := stepGPT(4, true, false)
	_, paGrads, lossP := stepGPT(4, true, true)
	if lossV != lossC || lossV != lossP {
		t.Fatalf("losses differ: vanilla %v ckpt %v pa %v", lossV, lossC, lossP)
	}
	if d := testutil.MaxDiff(vanilla, ckpt); d != 0 {
		t.Errorf("checkpointing changed gradients by %g", d)
	}
	if d := testutil.MaxDiff(vanilla, paGrads); d != 0 {
		t.Errorf("Pa changed gradients by %g", d)
	}
}

// §8's block traffic identity, measured: without checkpointing a block
// costs 4 all-reduces (8·M·h ring elements per rank); with recompute it is
// 6 (12·M·h — the paper's 12 × batch × seq × hidden); Pa adds exactly one
// all-gather of M·h per block on top, a 1/12 overhead.
func TestSection8TrafficIdentitiesMeasured(t *testing.T) {
	const n = 4
	m := paBatch * paSeq
	ring := func(elems int) int64 { return int64(elems) * (n - 1) / n }
	perBlockVanilla := 4 * 2 * ring(m*paHidden)
	perBlockCkpt := 6 * 2 * ring(m*paHidden)
	paExtra := ring(m * paHidden)

	wV, _, _ := stepGPT(n, false, false)
	wC, _, _ := stepGPT(n, true, false)
	wP, _, _ := stepGPT(n, true, true)

	vanilla := wV.Stats(0).ElemsSent
	ckpt := wC.Stats(0).ElemsSent
	pa := wP.Stats(0).ElemsSent

	if got, want := ckpt-vanilla, int64(paLayers)*(perBlockCkpt-perBlockVanilla); got != want {
		t.Errorf("recompute traffic = %d elems, want %d (2 extra all-reduces per block)", got, want)
	}
	if got, want := pa-ckpt, int64(paLayers)*paExtra; got != want {
		t.Errorf("Pa overhead = %d elems, want %d (one all-gather per block)", got, want)
	}
	// The headline ratio: Pa overhead / checkpointed MP block traffic = 1/12.
	ratio := float64(pa-ckpt) / float64(int64(paLayers)*perBlockCkpt)
	if ratio <= 0 || ratio > 0.1 {
		t.Errorf("Pa/MP traffic ratio %.4f, want ≤ 0.1 (§8: 'less than one tenth')", ratio)
	}
}

// Pa's memory claim in its real setting: each MP rank retains only 1/Nm of
// every checkpoint.
func TestPaShrinksCheckpointResidency(t *testing.T) {
	const n = 4
	ids, targets := model.SyntheticBatch(73, paBatch, paSeq, paCfg.Vocab)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		st, closeSched := checkpointStream(c)
		defer closeSched()
		store := NewPartitionedStore(st, false)
		m := model.NewSharded(paCfg, 23, c)
		m.Checkpoint = true
		m.Store = store
		m.Loss(ids, targets, paBatch)
		fullBytes := int64(paLayers * paBatch * paSeq * paHidden * 2)
		if got := store.DeviceBytes(); got != fullBytes/n {
			t.Errorf("rank %d: resident checkpoint bytes %d, want %d (1/%d of %d)",
				c.Rank(), got, fullBytes/n, n, fullBytes)
		}
		m.Backward()
	})
}
