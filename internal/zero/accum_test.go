package zero

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// accumRun trains `boundaries` optimizer steps, each accumulating k
// micro-batches sliced row-major from the global batch, through the
// three-phase Forward/Backward/Update lifecycle. It returns rank 0's
// per-micro losses (k per boundary) and every rank's final full parameter
// buffer as the compute reads it (stage 3 gathers before reporting).
func accumRun(t *testing.T, cfg model.Config, n, boundaries, k int, opts Options,
	ids, targets []int, globalBatch int) ([]float64, [][]float32) {
	t.Helper()
	return accumRunIn(t, comm.NewWorld(n), cfg, boundaries, k, opts, ids, targets, globalBatch)
}

// accumRunIn is accumRun on a caller-supplied world, whose Stats the caller
// can read afterwards.
func accumRunIn(t *testing.T, w *comm.World, cfg model.Config, boundaries, k int, opts Options,
	ids, targets []int, globalBatch int) ([]float64, [][]float32) {
	t.Helper()
	if globalBatch%k != 0 {
		t.Fatalf("global batch %d not divisible by k=%d", globalBatch, k)
	}
	micro := globalBatch / k
	seqLen := len(ids) / globalBatch
	mt := micro * seqLen
	losses := make([]float64, 0, boundaries*k)
	params := make([][]float32, w.Size())
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		defer tr.Close()
		for b := 0; b < boundaries; b++ {
			for j := 0; j < k; j++ {
				l := tr.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt], micro)
				tr.Backward()
				if c.Rank() == 0 {
					losses = append(losses, l)
				}
			}
			tr.Update()
		}
		params[c.Rank()] = tr.GatheredParams()
	})
	return losses, params
}

// The stage-equivalence contract extended to gradient accumulation: for a
// fixed accumulation depth k, every stage × {sync, overlap, prefetch} ×
// bucket size walks bitwise the same micro-loss trajectory and reaches
// bitwise the same parameters as the synchronous unbucketed stage-0
// reference. Partitioning and scheduling still change memory and
// wall-clock, never the optimization (§2.2.3) — now across micro-batch
// boundaries too.
func TestAccumStagesBitIdentical(t *testing.T) {
	cfg := testConfig()
	const n, boundaries, k, batch = 4, 3, 2, 8
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)

	base := Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	refLoss, refParams := accumRun(t, cfg, n, boundaries, k, base, ids, targets, batch)

	for _, stage := range AllStages {
		for _, overlap := range []bool{false, true} {
			for _, prefetch := range []bool{false, true} {
				for _, bucket := range []int{0, 193} {
					opts := base
					opts.Stage = stage
					opts.Overlap = overlap
					opts.Prefetch = prefetch
					opts.BucketElems = bucket
					loss, params := accumRun(t, cfg, n, boundaries, k, opts, ids, targets, batch)
					for i := range refLoss {
						if loss[i] != refLoss[i] {
							t.Errorf("%v overlap=%v prefetch=%v bucket=%d micro %d: loss %.17g != ref %.17g",
								stage, overlap, prefetch, bucket, i, loss[i], refLoss[i])
							break
						}
					}
					for r := 0; r < n; r++ {
						if d := testutil.MaxDiff(params[r], refParams[r]); d != 0 {
							t.Errorf("%v overlap=%v prefetch=%v bucket=%d rank %d: params diverged by %g",
								stage, overlap, prefetch, bucket, r, d)
						}
					}
				}
			}
		}
	}
}

// Accumulation composes with hierarchical topology routing: on the same
// node layout every stage agrees bitwise (the per-topology determinism
// contract of the process-group PR, extended across micro-batches).
func TestAccumTopologyStagesBitIdentical(t *testing.T) {
	cfg := testConfig()
	const n, boundaries, k, batch = 8, 2, 2, 16
	ids, targets := model.SyntheticBatch(41, batch, cfg.Seq, cfg.Vocab)
	for _, nodeSize := range []int{0, 2} {
		base := Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, NodeSize: nodeSize}
		refLoss, refParams := accumRun(t, cfg, n, boundaries, k, base, ids, targets, batch)
		for _, stage := range []Stage{StageOSGrad, StageFull} {
			opts := base
			opts.Stage = stage
			opts.Overlap = true
			opts.Prefetch = true
			opts.BucketElems = 193
			loss, params := accumRun(t, cfg, n, boundaries, k, opts, ids, targets, batch)
			for i := range refLoss {
				if loss[i] != refLoss[i] {
					t.Errorf("nodeSize=%d %v micro %d: loss %.17g != ref %.17g",
						nodeSize, stage, i, loss[i], refLoss[i])
					break
				}
			}
			for r := 0; r < n; r++ {
				if d := testutil.MaxDiff(params[r], refParams[r]); d != 0 {
					t.Errorf("nodeSize=%d %v rank %d: params diverged by %g", nodeSize, stage, r, d)
				}
			}
		}
	}
}

// A single-micro-batch accumulation cycle is the legacy Step, bitwise: the
// three-phase refactor must not have moved a single operation.
func TestAccumK1MatchesLegacyStepBitwise(t *testing.T) {
	cfg := testConfig()
	const n, steps, batch = 4, 5, 8
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	for _, stage := range AllStages {
		opts := Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 193, Overlap: true}

		legacy := make([]float64, steps)
		legacyParams := make([][]float32, n)
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, opts)
			defer tr.Close()
			for s := 0; s < steps; s++ {
				l := tr.Step(ids, targets, batch)
				if c.Rank() == 0 {
					legacy[s] = l
				}
			}
			legacyParams[c.Rank()] = tr.GatheredParams()
		})

		phased, phasedParams := accumRun(t, cfg, n, steps, 1, opts, ids, targets, batch)
		for s := range legacy {
			if phased[s] != legacy[s] {
				t.Errorf("%v step %d: phased loss %.17g != legacy %.17g", stage, s, phased[s], legacy[s])
			}
		}
		for r := 0; r < n; r++ {
			if d := testutil.MaxDiff(phasedParams[r], legacyParams[r]); d != 0 {
				t.Errorf("%v rank %d: phased params diverged by %g", stage, r, d)
			}
		}
	}
}

// Accumulating k micro-batches of B/k rows equals one B-sized batch: the
// leaves of the gradient sum are identical (micro losses are means over
// 1/k of the rows, an exact power-of-two rescale for k ∈ {2,4}, undone
// exactly by the boundary 1/(N·k) average), so the two runs differ only by
// the grouping of the same per-row gradient sums — per-micro ring
// reductions folded serially versus one ring over whole-batch partials.
// Like the cross-topology contract, regrouping a float32 reduction tree is
// a rounding-level effect, so equality is checked to tight tolerance and
// the trajectories must descend in lockstep.
func TestAccumMatchesSingleBatch(t *testing.T) {
	cfg := testConfig()
	const n, boundaries, batch = 4, 6, 16
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)

	for _, stage := range []Stage{StageDDP, StageOSGrad, StageFull} {
		opts := Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 193, Overlap: true, Prefetch: true}
		_, single := accumRun(t, cfg, n, boundaries, 1, opts, ids, targets, batch)
		for _, k := range []int{2, 4} {
			microLoss, accum := accumRun(t, cfg, n, boundaries, k, opts, ids, targets, batch)
			if d := testutil.MaxDiff(accum[0], single[0]); d > 2e-4 {
				t.Errorf("%v k=%d: accumulated params differ from single batch by %g", stage, k, d)
			}
			// The mean micro loss of the final boundary must descend below
			// the first boundary's (the accumulated run actually trains).
			first, last := 0.0, 0.0
			for j := 0; j < k; j++ {
				first += microLoss[j]
				last += microLoss[(boundaries-1)*k+j]
			}
			if last >= first {
				t.Errorf("%v k=%d: accumulated loss did not fall: %v -> %v", stage, k, first/float64(k), last/float64(k))
			}
		}
	}
}

// The §5.2 memory property, measured: the gradient state a rank carries
// across micro-batch boundaries is exactly its Ψ/Nd partition at stages
// ≥ 1 (the full Ψ only at stage 0, where every state is replicated by
// definition) — independent of the accumulation depth. Mid-accumulation
// the accumulator must not grow, and Update must re-zero it.
func TestAccumulatorPartitionSizedAnyDepth(t *testing.T) {
	cfg := testConfig()
	const n, batch = 4, 32
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	psi := cfg.ParamCount()
	for _, stage := range AllStages {
		for _, k := range []int{1, 2, 8} {
			micro := batch / k
			mt := micro * cfg.Seq
			w := comm.NewWorld(n)
			w.Run(func(c *comm.Comm) {
				tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
				defer tr.Close()
				want := tr.Owned().Len()
				if stage == StageDDP {
					want = psi
				}
				for j := 0; j < k; j++ {
					tr.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt], micro)
					tr.Backward()
					if got := tr.GradAccumElems(); got != want {
						t.Errorf("%v k=%d micro %d: accumulator %d elems, want %d", stage, k, j, got, want)
					}
					if got := tr.AccumulatedMicros(); got != j+1 {
						t.Errorf("%v k=%d: AccumulatedMicros = %d, want %d", stage, k, got, j+1)
					}
				}
				tr.Update()
				if tr.AccumulatedMicros() != 0 {
					t.Errorf("%v k=%d: accumulator not reset after Update", stage, k)
				}
			})
		}
	}
}

// The §5.2 communication identity of accumulation: per optimizer step with
// k micro-batches, the partitioned stages move (k+1)(N-1)Ψ elements in
// total — k reduce-scatters of the micro gradients plus ONE parameter
// all-gather at the boundary — versus replicated DDP's 2k(N-1)Ψ (a full
// all-reduce per micro-batch) and stage 3's 3k(N-1)Ψ (two parameter
// gather passes per micro-batch). Accumulation is where ZeRO's partitioned
// gradients beat DDP on the wire, not just in memory.
func TestAccumVolumeIdentity(t *testing.T) {
	cfg := testConfig()
	psi := int64(cfg.ParamCount())
	const n, batch = 4, 16
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	for _, k := range []int{1, 2, 4} {
		for _, tc := range []struct {
			stage Stage
			mult  int64 // total (N-1)Ψ multiples per boundary
		}{
			{StageDDP, 2 * int64(k)},
			{StageOS, int64(k) + 1},
			{StageOSGrad, int64(k) + 1},
			{StageFull, 3 * int64(k)},
		} {
			micro := batch / k
			mt := micro * cfg.Seq
			w := comm.NewWorld(n)
			w.Run(func(c *comm.Comm) {
				tr := MustNew(c, cfg, Options{Stage: tc.stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
				defer tr.Close()
				for j := 0; j < k; j++ {
					tr.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt], micro)
					tr.Backward()
				}
				tr.Update()
			})
			want := tc.mult * int64(n-1) * psi
			if got := w.TotalElemsSent(); got != want {
				t.Errorf("%v k=%d: total sent %d elems, want %d (= %d(N-1)Ψ)",
					tc.stage, k, got, want, tc.mult)
			}
		}
	}
}

// Accumulation with a non-Adam optimizer: the config-selected SGD and LAMB
// paths descend and keep the cross-stage bitwise contract, stepping the
// fp32 master under fp16 compute too. Clipping is on, and at N = 4 LAMB's
// per-tensor blocks straddle shard boundaries, so its trust ratios need
// the partition-ordered norm exchange.
func TestAccumOptimizerKindsStagesAgree(t *testing.T) {
	cfg := testConfig()
	const boundaries, k, batch = 4, 2, 8
	ids, targets := model.SyntheticBatch(17, batch, cfg.Seq, cfg.Vocab)
	for _, n := range []int{2, 4} {
		for _, fp16 := range []bool{false, true} {
			for _, kind := range []optimizer.Kind{optimizer.KindSGD, optimizer.KindLAMB} {
				name := fmt.Sprintf("n=%d fp16=%v %s", n, fp16, kind)
				base := Options{Seed: testSeed, Optimizer: optimizer.Spec{Kind: kind, LR: 1e-2},
					ClipNorm: 0.5, FP16Compute: fp16}
				refLoss, refParams := accumRun(t, cfg, n, boundaries, k, base, ids, targets, batch)
				for _, stage := range []Stage{StageOS, StageOSGrad, StageFull} {
					opts := base
					opts.Stage = stage
					opts.Overlap = true
					opts.Prefetch = true
					loss, params := accumRun(t, cfg, n, boundaries, k, opts, ids, targets, batch)
					for i := range refLoss {
						if loss[i] != refLoss[i] {
							t.Errorf("%s %v micro %d: loss %.17g != stage-0 ref %.17g", name, stage, i, loss[i], refLoss[i])
							break
						}
					}
					for r := 0; r < n; r++ {
						if d := testutil.MaxDiff(params[r], refParams[r]); d != 0 {
							t.Errorf("%s %v rank %d: params diverged by %g", name, stage, r, d)
						}
					}
				}
				if refLoss[len(refLoss)-1] >= refLoss[0] {
					t.Errorf("%s: loss did not fall: %v -> %v", name, refLoss[0], refLoss[len(refLoss)-1])
				}
			}
		}
	}
}

// Update without any accumulated Backward is a programming error.
func TestUpdateWithoutBackwardPanics(t *testing.T) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, testConfig(), Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}})
		defer tr.Close()
		defer func() {
			if recover() == nil {
				t.Error("expected panic from Update without Backward")
			}
		}()
		tr.Update()
	})
}

// The Prefetch window only moves where stage-3 gathers are waited: window 1
// (one group ahead) is bitwise identical to window 0 (each group gathered
// at its own entry) with accumulation in the loop, and both send the same
// messages and the same prefetch-stream elements.
func TestPrefetchDepthBitwiseInvariant(t *testing.T) {
	cfg := testConfig()
	const n, boundaries, k, batch = 4, 3, 2, 8
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	base := Options{Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 193, Overlap: true}
	refW := comm.NewWorld(n)
	refLoss, refParams := accumRunIn(t, refW, cfg, boundaries, k, base, ids, targets, batch)
	opts := base
	opts.Prefetch = true
	w := comm.NewWorld(n)
	loss, params := accumRunIn(t, w, cfg, boundaries, k, opts, ids, targets, batch)
	for i := range refLoss {
		if loss[i] != refLoss[i] {
			t.Errorf("micro %d: window-1 loss %.17g != window-0 %.17g", i, loss[i], refLoss[i])
			break
		}
	}
	for r := 0; r < n; r++ {
		if d := testutil.MaxDiff(params[r], refParams[r]); d != 0 {
			t.Errorf("rank %d: params diverged by %g", r, d)
		}
		got, want := w.Stats(r), refW.Stats(r)
		if got.Messages != want.Messages {
			t.Errorf("rank %d: window 1 sent %d messages, window 0 %d", r, got.Messages, want.Messages)
		}
		if g, wt := got.PerStream[StreamPrefetch], want.PerStream[StreamPrefetch]; g != wt || g == 0 {
			t.Errorf("rank %d: window 1 sent %d prefetch elems, window 0 %d (want equal, nonzero)", r, g, wt)
		}
	}
}

// Golden boundary-loss trajectory for the accumulated reference
// configuration (4 ranks, k=2, stage 2, overlap, bucket 193): pins the
// accumulation arithmetic against algorithm drift; the tolerance absorbs
// only cross-platform FMA contraction.
func TestAccumBoundaryLossGolden(t *testing.T) {
	golden := []float64{
		2.9386676980572517,
		2.9076893468481142,
		2.8840025542463610,
	}
	cfg := testConfig()
	const n, k, batch = 4, 2, 8
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	loss, _ := accumRun(t, cfg, n, len(golden), k, Options{
		Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, Overlap: true, BucketElems: 193,
	}, ids, targets, batch)
	for b, want := range golden {
		got := (loss[b*k] + loss[b*k+1]) / 2
		if diff := got - want; diff > 1e-9*want || diff < -1e-9*want {
			t.Errorf("boundary %d: mean micro loss %.17g, want golden %.17g", b, got, want)
		}
	}
}
