package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// Gradient clipping across the *partitioned* gradient must agree bitwise
// with clipping the replicated gradient at stage 0 (DDP): both paths
// compute the global norm by the same partition-ordered arithmetic.
func TestClippedStagesMatchClippedDDPBitwise(t *testing.T) {
	cfg := testConfig()
	const n, batch, steps = 4, 4, 4
	const clip = 0.25 // low enough to actually clip every step
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)

	w := comm.NewWorld(n)
	ddpParams := make([][]float32, n)
	ddpNorms := make([]float64, n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageDDP, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, ClipNorm: clip})
		for s := 0; s < steps; s++ {
			tr.Step(ids, targets, batch)
		}
		ddpParams[c.Rank()] = tr.GatheredParams()
		ddpNorms[c.Rank()] = tr.LastGradNorm
	})

	for _, stage := range []Stage{StageOS, StageOSGrad, StageFull} {
		w2 := comm.NewWorld(n)
		params := make([][]float32, n)
		norms := make([]float64, n)
		w2.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, ClipNorm: clip})
			for s := 0; s < steps; s++ {
				tr.Step(ids, targets, batch)
			}
			params[c.Rank()] = tr.GatheredParams()
			norms[c.Rank()] = tr.LastGradNorm
		})
		for r := 0; r < n; r++ {
			if d := testutil.MaxDiff(params[r], ddpParams[0]); d != 0 {
				t.Errorf("%v rank %d: clipped trajectory differs from DDP by %g", stage, r, d)
			}
			if norms[r] != ddpNorms[0] {
				t.Errorf("%v rank %d: grad norm %v != DDP %v", stage, r, norms[r], ddpNorms[0])
			}
		}
	}
}

// Clipping must actually bound the applied update: with an aggressive clip
// the parameter step shrinks versus unclipped training.
func TestClippingBoundsTheUpdate(t *testing.T) {
	cfg := testConfig()
	const batch = 4
	ids, targets := model.SyntheticBatch(9, batch, cfg.Seq, cfg.Vocab)

	run := func(clip float64) ([]float32, float64) {
		w := comm.NewWorld(2)
		var out []float32
		var norm float64
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: 1, ClipNorm: clip})
			tr.Step(ids, targets, batch)
			params := tr.GatheredParams()
			if c.Rank() == 0 {
				out = params
				norm = tr.LastGradNorm
			}
		})
		return out, norm
	}
	init := model.New(cfg, 1).Params
	unclipped, _ := run(0)
	clipped, norm := run(1e-4)
	if norm == 0 {
		t.Fatal("grad norm not recorded")
	}
	dUnclipped := testutil.MaxDiff(init, unclipped)
	dClipped := testutil.MaxDiff(init, clipped)
	// Adam normalizes per-element, so the effect is damped but must exist.
	if dClipped >= dUnclipped {
		t.Errorf("aggressive clip did not shrink the update: %g vs %g", dClipped, dUnclipped)
	}
}
