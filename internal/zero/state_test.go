package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// Save/Load round trip: train k steps, checkpoint, restore into a fresh
// world, train j more steps — the trajectory must equal an uninterrupted
// k+j-step run bitwise. This exercises the collective consolidation of the
// partitioned optimizer state (no single rank holds it all).
func TestSaveLoadResumesBitwise(t *testing.T) {
	cfg := testConfig()
	const n, batch, k, j = 4, 4, 3, 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)

	for _, stage := range []Stage{StageDDP, StageOS, StageOSGrad, StageFull} {
		opts := Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

		// Uninterrupted reference.
		ref := runZeRO(t, cfg, stage, n, k+j, opts, ids, targets, batch)

		// Train k steps, save on rank 0.
		var blob []byte
		w1 := comm.NewWorld(n)
		w1.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, opts)
			for s := 0; s < k; s++ {
				tr.Step(ids, targets, batch)
			}
			snap := tr.Save()
			if c.Rank() == 0 {
				var err error
				blob, err = snap.Encode()
				if err != nil {
					t.Error(err)
				}
			}
		})

		// Fresh world with a different seed (weights will be overwritten):
		// every rank loads the one decoded snapshot, then resumes.
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		w2 := comm.NewWorld(n)
		results := make([][]float32, n)
		w2.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: 999})
			if err := tr.Load(snap); err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < j; s++ {
				tr.Step(ids, targets, batch)
			}
			results[c.Rank()] = tr.GatheredParams()
		})
		for r := 0; r < n; r++ {
			if d := testutil.MaxDiff(results[r], ref[r]); d != 0 {
				t.Errorf("%v rank %d: resumed trajectory diverged by %g", stage, r, d)
			}
		}
	}
}

// Elastic restore: a checkpoint written by a 4-rank world restores into a
// 2-rank world and matches the 2-rank uninterrupted trajectory (state is
// stored unpartitioned, so repartitioning is automatic).
func TestElasticRestoreAcrossWorldSizes(t *testing.T) {
	cfg := testConfig()
	const batch, k, j = 4, 3, 3
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

	// Save from a 4-rank world.
	var blob []byte
	w4 := comm.NewWorld(4)
	w4.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < k; s++ {
			tr.Step(ids, targets, batch)
		}
		if snap := tr.Save(); snap != nil {
			blob, _ = snap.Encode()
		}
	})

	// Reference: what a 2-rank world reaches after k+j steps from scratch.
	// (The k-step prefix differs only by reduction grouping, so compare
	// with tolerance rather than bitwise.)
	ref := runZeRO(t, cfg, StageOSGrad, 2, k+j, opts, ids, targets, batch)

	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	w2 := comm.NewWorld(2)
	results := make([][]float32, 2)
	w2.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: 123})
		if err := tr.Load(snap); err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < j; s++ {
			tr.Step(ids, targets, batch)
		}
		results[c.Rank()] = tr.GatheredParams()
	})
	for r := 0; r < 2; r++ {
		if d := testutil.MaxDiff(results[r], ref[r]); d > 1e-3 {
			t.Errorf("rank %d: elastic restore diverged by %g", r, d)
		}
	}
}

// fp16 compute checkpoints the fp32 master shards, not the halves the
// kernels read. The loss scale is fixed low enough never to overflow: the
// scaler is not part of a Snapshot.
func TestSaveLoadFP16PreservesMasters(t *testing.T) {
	cfg := testConfig()
	const n, batch = 2, 4
	ids, targets := model.SyntheticBatch(7, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, FP16Compute: true, InitialLossScale: 256}

	ref := runZeRO(t, cfg, StageOSGrad, n, 5, opts, ids, targets, batch)

	var blob []byte
	w1 := comm.NewWorld(n)
	w1.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < 2; s++ {
			tr.Step(ids, targets, batch)
		}
		if snap := tr.Save(); snap != nil {
			blob, _ = snap.Encode()
		}
	})
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	w2 := comm.NewWorld(n)
	results := make([][]float32, n)
	w2.Run(func(c *comm.Comm) {
		o := opts
		o.Seed = 55
		tr := MustNew(c, cfg, o)
		if err := tr.Load(snap); err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < 3; s++ {
			tr.Step(ids, targets, batch)
		}
		results[c.Rank()] = tr.GatheredParams()
	})
	for r := 0; r < n; r++ {
		if d := testutil.MaxDiff(results[r], ref[r]); d != 0 {
			t.Errorf("rank %d: fp16 resume diverged by %g (master precision lost?)", r, d)
		}
	}
}

func TestLoadValidation(t *testing.T) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, testConfig(), Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}})
		if err := tr.Load(nil); err == nil {
			t.Error("expected error for nil snapshot")
		}
		if err := tr.Load(&Snapshot{NumParams: 1}); err == nil {
			t.Error("expected error for size mismatch")
		}
	})
}

func TestSnapshotEncodeDecode(t *testing.T) {
	s := &Snapshot{
		Stage: StageOSGrad, WorldSize: 4, NumParams: 3, OptSteps: 7,
		Params: []float32{1, 2, 3},
		Opt:    [][]float32{{4, 5, 6}, {7, 8, 9}},
	}
	blob, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.OptSteps != 7 || got.Params[2] != 3 || got.Opt[1][0] != 7 {
		t.Errorf("round trip mangled snapshot: %+v", got)
	}
	if _, err := DecodeSnapshot([]byte("garbage")); err == nil {
		t.Error("expected decode error")
	}
}
