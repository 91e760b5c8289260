package zero

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// topoTrajectory trains on an n-rank world laid out as nodes of nodeSize
// ranks and returns rank 0's per-step loss.
func topoTrajectory(t *testing.T, n, nodeSize int, opts Options, steps, batch int, ids, targets []int) []float64 {
	t.Helper()
	opts.NodeSize = nodeSize
	w := comm.NewWorld(n)
	out := make([]float64, steps)
	w.Run(func(c *comm.Comm) {
		tr, err := New(c, testConfig(), opts)
		if err != nil {
			t.Error(err)
			return
		}
		defer tr.Close()
		for s := 0; s < steps; s++ {
			l := tr.Step(ids, targets, batch)
			if c.Rank() == 0 {
				out[s] = l
			}
		}
	})
	return out
}

// The stage-equivalence contract extended across topologies: on a fixed
// node layout, every stage and every schedule — synchronous, grad-bucket
// overlap, stage-3 prefetch, bucketed or not — walks a bit-identical loss
// trajectory. Scheduling never changes arithmetic; on one topology the
// reduction tree is fixed, so the equality is exact. (Across topologies
// the tree differs — see the golden test below.)
func TestTopologyStageEquivalenceBitwise(t *testing.T) {
	const n, steps, batch = 8, 4, 8
	ids, targets := model.SyntheticBatch(31, batch, testConfig().Seq, testConfig().Vocab)
	base := Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	for _, nodeSize := range []int{0, 2, 4} {
		ref := topoTrajectory(t, n, nodeSize, base, steps, batch, ids, targets) // DDP, sync, unbucketed
		for _, stage := range AllStages {
			for _, sched := range []struct{ overlap, prefetch bool }{
				{false, false}, {true, false}, {false, true}, {true, true},
			} {
				opts := base
				opts.Stage = stage
				opts.Overlap = sched.overlap
				opts.Prefetch = sched.prefetch
				opts.BucketElems = 193
				got := topoTrajectory(t, n, nodeSize, opts, steps, batch, ids, targets)
				for s := range ref {
					if got[s] != ref[s] {
						t.Errorf("nodeSize=%d %v overlap=%v prefetch=%v step %d: loss %.17g != reference %.17g",
							nodeSize, stage, sched.overlap, sched.prefetch, s, got[s], ref[s])
						break
					}
				}
			}
		}
	}
}

// Golden trajectories per topology (8 ranks, 6 steps, seed 7, lr 1e-3,
// batch 8, data seed 31). The first step is identical everywhere (the
// initial forward pass involves no reduction); later steps differ across
// topologies only by float reassociation in the two-level reduce-scatter —
// within each topology the values are exact, and across topologies they
// agree to ~1e-8 relative. The tolerance absorbs only cross-platform FMA
// contraction, not algorithm drift.
func TestTopologyLossTrajectoryGolden(t *testing.T) {
	goldens := map[int][]float64{
		0: {
			2.9445802206352325,
			2.9060331552154741,
			2.8750875026649672,
			2.8509056038744891,
			2.8312577232148666,
			2.8141822012346775,
		},
		2: {
			2.9445802206352325,
			2.9060331716091472,
			2.8750875114359307,
			2.8509056038744891,
			2.8312577165796169,
			2.8141821941283323,
		},
		4: {
			2.9445802206352325,
			2.9060331716091472,
			2.8750875114359307,
			2.8509055939696513,
			2.8312577235333247,
			2.8141822095156535,
		},
	}
	const n, batch, steps = 8, 8, 6
	ids, targets := model.SyntheticBatch(31, batch, testConfig().Seq, testConfig().Vocab)
	for _, nodeSize := range []int{0, 2, 4} {
		// The fully streamed stage-3 schedule must land on the same goldens
		// as the per-topology reference above (bitwise, per the
		// equivalence test); the goldens pin the absolute values.
		got := topoTrajectory(t, n, nodeSize, Options{
			Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
			Overlap: true, Prefetch: true, BucketElems: 193,
		}, steps, batch, ids, targets)
		for s, want := range goldens[nodeSize] {
			if math.Abs(got[s]-want) > 1e-9*math.Abs(want) {
				t.Errorf("nodeSize=%d step %d: loss %.17g, want golden %.17g", nodeSize, s, got[s], want)
			}
		}
		if got[steps-1] >= got[0] {
			t.Errorf("nodeSize=%d: loss did not fall: %v -> %v", nodeSize, got[0], got[steps-1])
		}
		// Cross-topology: same optimization, different rounding only.
		for s, want := range goldens[0] {
			if rel := math.Abs(got[s]-want) / math.Abs(want); rel > 1e-7 {
				t.Errorf("nodeSize=%d step %d: drifted %g relative from the flat trajectory (reassociation only expected)",
					nodeSize, s, rel)
			}
		}
	}
}

// The §7 volume identity survives hierarchical routing — the two-level
// algorithm re-splits the same total volume, it never adds any: total
// elements sent per step stay mult·(N-1)·Ψ, of which exactly mult·(M-1)·Ψ/M
// cross nodes (per-rank: mult·(Ψ/S)·(M-1)/M, the 1/S inter-node cut that
// the harmonic DP bandwidth in perfmodel banks on) and the rest stay inside nodes.
func TestTopologyVolumeSplitIdentities(t *testing.T) {
	cfg := testConfig()
	psi := int64(cfg.ParamCount())
	const n, nodeSize, batch = 8, 4, 8
	const nodes = n / nodeSize
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	for _, tc := range []struct {
		stage Stage
		mult  int64
	}{
		{StageDDP, 2}, {StageOS, 2}, {StageOSGrad, 2}, {StageFull, 3},
	} {
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: tc.stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
				NodeSize: nodeSize,
			})
			tr.Step(ids, targets, batch)
		})
		var intra, inter int64
		for r := 0; r < n; r++ {
			st := w.Stats(r)
			intra += st.PerGroup["hier-intra"].Elems
			inter += st.PerGroup["hier-inter"].Elems
		}
		if total, want := w.TotalElemsSent(), tc.mult*int64(n-1)*psi; total != want {
			t.Errorf("%v: total %d elems, want %d (volume identity must survive routing)", tc.stage, total, want)
		}
		if want := tc.mult * int64(nodes-1) * psi; inter != want {
			t.Errorf("%v: inter-node total %d elems, want %d = %d(M-1)Ψ", tc.stage, inter, want, tc.mult)
		}
		if want := tc.mult * int64(nodes) * int64(nodeSize-1) * psi; intra != want {
			t.Errorf("%v: intra-node total %d elems, want %d", tc.stage, intra, want)
		}
	}
}

// Full composition under a topology: hierarchical routing + fp16 compute +
// gradient clipping + activation checkpointing still matches the same
// configuration's flat-schedule arithmetic contract (sync == overlapped)
// and moves fp16-native bytes on both hierarchy levels.
func TestTopologyComposesWithFP16ClipCheckpoint(t *testing.T) {
	cfg := testConfig()
	const n, nodeSize, steps, batch = 4, 2, 3, 8
	ids, targets := model.SyntheticBatch(71, batch, cfg.Seq, cfg.Vocab)
	run := func(overlap bool) ([]float64, *comm.World) {
		w := comm.NewWorld(n)
		out := make([]float64, steps)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
				FP16Compute: true, ClipNorm: 1, Checkpoint: true, BucketElems: 193,
				Overlap: overlap, Prefetch: overlap,
				NodeSize: nodeSize,
			})
			defer tr.Close()
			for s := 0; s < steps; s++ {
				l := tr.Step(ids, targets, batch)
				if c.Rank() == 0 {
					out[s] = l
				}
			}
		})
		return out, w
	}
	sync, _ := run(false)
	over, w := run(true)
	for s := range sync {
		if sync[s] != over[s] {
			t.Errorf("step %d: overlapped %.17g != sync %.17g under topology+fp16+clip+ckpt", s, over[s], sync[s])
		}
	}
	st := w.Stats(0)
	for _, key := range []string{"hier-intra", "hier-inter"} {
		tr := st.PerGroup[key]
		if tr.Elems == 0 {
			t.Errorf("no %s traffic recorded", key)
			continue
		}
		// The clip partial and overflow vote gathers stay flat and fp32, so
		// only the group keys are asserted fp16-native (2 B/elem).
		if tr.Bytes != 2*tr.Elems {
			t.Errorf("%s: %d bytes for %d elems, want fp16-native 2 B/elem", key, tr.Bytes, tr.Elems)
		}
	}
}
