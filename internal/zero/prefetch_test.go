package zero

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// runPartitioned trains opts.Stage for `steps` steps and returns rank 0's
// gathered parameters plus the world (for traffic inspection).
func runPartitioned(t *testing.T, cfg model.Config, n, steps, batch int, opts Options,
	ids, targets []int) ([]float32, *comm.World) {
	t.Helper()
	w := comm.NewWorld(n)
	out := make([][]float32, n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		defer tr.Close()
		for s := 0; s < steps; s++ {
			tr.Step(ids, targets, batch)
		}
		out[c.Rank()] = tr.GatheredParams()
	})
	for r := 1; r < n; r++ {
		if d := testutil.MaxDiff(out[r], out[0]); d != 0 {
			t.Fatalf("ranks 0 and %d disagree by %g after gather", r, d)
		}
	}
	return out[0], w
}

// The prefetch contract at every partitioned stage: parameter gathers
// pipelined one group ahead on the prefetch stream are bitwise identical to
// the window-0 schedule that gathers each group where it is needed, across
// world sizes and bucket sizes, with and without gradient overlap riding
// the grad stream at the same time. The gathers move the same elements
// either way — only *when* they run changes — and at stages 1-2 as at stage
// 3 they ride the prefetch stream.
func TestStage3PrefetchBitIdentical(t *testing.T) {
	cfg := testConfig()
	const steps = 3
	for _, stage := range []Stage{StageOS, StageOSGrad, StageFull} {
		for _, n := range []int{1, 2, 4} {
			batch := 2 * n
			ids, targets := model.SyntheticBatch(41, batch, cfg.Seq, cfg.Vocab)
			for _, bucket := range []int{0, 193, 4096} {
				base := Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: bucket}
				ref, refW := runPartitioned(t, cfg, n, steps, batch, base, ids, targets)
				for _, overlap := range []bool{false, true} {
					opts := base
					opts.Prefetch = true
					opts.Overlap = overlap
					name := fmt.Sprintf("%v n=%d bucket=%d overlap=%v", stage, n, bucket, overlap)
					got, w := runPartitioned(t, cfg, n, steps, batch, opts, ids, targets)
					if d := testutil.MaxDiff(got, ref); d != 0 {
						t.Errorf("%s: prefetch diverged from sync gathers by %g", name, d)
					}
					if got, want := w.TotalElemsSent(), refW.TotalElemsSent(); got != want {
						t.Errorf("%s: prefetch moved %d elems, sync %d (same schedule expected)", name, got, want)
					}
					if n > 1 && w.Stats(0).PerStream[StreamPrefetch] == 0 {
						t.Errorf("%s: no traffic on the prefetch stream", name)
					}
				}
			}
		}
	}
}

// replicatedBatch builds a global batch whose per-rank shards are all the
// same rows, so every rank computes identical activations — the situation
// of an MP group (which replicates activations by construction) modeled on
// the DP world, making a PartitionedStore valid under the trainer.
func replicatedBatch(seed int64, n, perRank, seqLen, vocab int) (ids, targets []int) {
	baseIDs, baseTargets := model.SyntheticBatch(seed, perRank, seqLen, vocab)
	for r := 0; r < n; r++ {
		ids = append(ids, baseIDs...)
		targets = append(targets, baseTargets...)
	}
	return ids, targets
}

// The old API forced Pa and gradient overlap to be mutually exclusive (one
// untyped lane per rank); streams remove the exclusion. This is the
// all-three-streams test: stage 3 with gradient overlap (grad stream),
// parameter prefetch (prefetch stream) and a PartitionedStore (checkpoint
// stream) running concurrently must be race-clean (run under -race) and
// bitwise identical to the fully synchronous inline-checkpoint schedule.
func TestPaComposesWithOverlapAndPrefetch(t *testing.T) {
	cfg := testConfig()
	const n, perRank, steps = 4, 2, 4
	batch := n * perRank
	ids, targets := replicatedBatch(53, n, perRank, cfg.Seq, cfg.Vocab)

	run := func(pa, overlap, prefetch bool) ([]float32, *comm.World) {
		w := comm.NewWorld(n)
		out := make([][]float32, n)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 193,
				Checkpoint: true, Overlap: overlap, Prefetch: prefetch,
			})
			defer tr.Close()
			tr.Model.Store = newInlineStore()
			if pa {
				tr.Model.Store = NewPartitionedStore(tr.Scheduler().Stream(StreamCheckpoint), false)
			}
			for s := 0; s < steps; s++ {
				tr.Step(ids, targets, batch)
			}
			out[c.Rank()] = tr.GatheredParams()
		})
		return out[0], w
	}

	ref, _ := run(false, false, false)
	got, w := run(true, true, true)
	if d := testutil.MaxDiff(got, ref); d != 0 {
		t.Errorf("Pa + overlap + prefetch diverged from inline sync schedule by %g", d)
	}
	// All three ordering domains must actually have carried traffic.
	st := w.Stats(0)
	for _, stream := range []string{StreamGrad, StreamPrefetch, StreamCheckpoint} {
		if st.PerStream[stream] == 0 {
			t.Errorf("stream %q carried no traffic; the three-domain schedule did not run", stream)
		}
	}
}

// The old mutual-exclusion check ("Overlap ignored while a Store is
// attached") is gone: with any checkpoint store attached, Overlap must
// actually overlap — grad-stream traffic present, trajectory unchanged.
func TestOverlapRunsWithCheckpointStore(t *testing.T) {
	cfg := testConfig()
	const n, steps, batch = 2, 3, 4
	ids, targets := model.SyntheticBatch(61, batch, cfg.Seq, cfg.Vocab)

	run := func(overlap bool) ([]float64, *comm.World) {
		w := comm.NewWorld(n)
		out := make([]float64, steps)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 100,
				Checkpoint: true, Overlap: overlap,
			})
			defer tr.Close()
			tr.Model.Store = newInlineStore()
			for s := 0; s < steps; s++ {
				l := tr.Step(ids, targets, batch)
				if c.Rank() == 0 {
					out[s] = l
				}
			}
		})
		return out, w
	}
	syncLoss, _ := run(false)
	overLoss, w := run(true)
	for s := range syncLoss {
		if syncLoss[s] != overLoss[s] {
			t.Errorf("step %d: overlap-with-store loss %.17g != sync %.17g", s, overLoss[s], syncLoss[s])
		}
	}
	if w.Stats(0).PerStream[StreamGrad] == 0 {
		t.Error("no grad-stream traffic: overlap was silently disabled by the store")
	}
}

// fp16 wire accounting is native: an fp32 step's measured bytes are exactly
// 4 per element, and an fp16 compute step's are 2 per element for every
// gradient and parameter collective plus 4 for the overflow vote's N-float
// gather on the default domain — reported by Stats, not reconstructed from
// elems × convention.
func TestNativeByteAccountingPerStep(t *testing.T) {
	cfg := testConfig()
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(11, batch, cfg.Seq, cfg.Vocab)
	for _, fp16 := range []bool{false, true} {
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, FP16Compute: fp16})
			defer tr.Close()
			tr.Step(ids, targets, batch)
		})
		for r := 0; r < n; r++ {
			st := w.Stats(r)
			want := 4 * st.ElemsSent
			if fp16 {
				vote := st.PerStream[comm.DefaultStream]
				if vote != n-1 {
					t.Errorf("rank %d: %d elems on the default domain, want the vote's %d", r, vote, n-1)
				}
				want = 2*(st.ElemsSent-vote) + 4*vote
			}
			if st.BytesSent != want {
				t.Errorf("fp16=%v rank %d: %d bytes for %d elems, want %d",
					fp16, r, st.BytesSent, st.ElemsSent, want)
			}
		}
	}
}

// A trainer runs on its Scheduler's streams — the same *Stream the rank's
// other components get from Scheduler(), not a second ordering domain — and
// its Close shuts them down and releases their names.
func TestQueueDepthAppliesToSharedScheduler(t *testing.T) {
	w := comm.NewWorld(2)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, testConfig(), Options{Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
		sched := tr.Scheduler()
		if tr.grad != sched.Stream(StreamGrad) {
			t.Error("trainer's grad stream is not its scheduler's")
		}
		if tr.prefetch != sched.Stream(StreamPrefetch) {
			t.Error("trainer's prefetch stream is not its scheduler's")
		}
		x := []float32{float32(c.Rank() + 1)}
		sched.Stream(StreamCheckpoint).AllReduce(comm.F32Buf(x)).Wait()
		if x[0] != 3 {
			t.Errorf("rank %d: all-reduce on the shared checkpoint stream gave %v, want 3", c.Rank(), x[0])
		}
		tr.Close()
		// A stream name a live scheduler still held would panic here.
		next := comm.NewScheduler(c)
		defer next.Close()
		next.Stream(StreamGrad)
	})
}

// A trainer whose scheduler another component of the rank shares — here
// unwaited all-reduces on its checkpoint stream, in flight across steps —
// trains bitwise identically to one that has the scheduler to itself:
// sharing the ordering-domain set changes traffic, never the schedule.
func TestQueueDepthOptionTrainsIdentically(t *testing.T) {
	cfg := testConfig()
	const n, steps, batch = 2, 3, 4
	ids, targets := model.SyntheticBatch(71, batch, cfg.Seq, cfg.Vocab)
	run := func(shared bool) []float64 {
		w := comm.NewWorld(n)
		out := make([]float64, steps)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
				BucketElems: 64, Overlap: true, Prefetch: true,
			})
			defer tr.Close()
			side := make([]float32, 4096)
			for s := 0; s < steps; s++ {
				if shared {
					tr.Scheduler().Stream(StreamCheckpoint).AllReduce(comm.F32Buf(side))
				}
				l := tr.Step(ids, targets, batch)
				if c.Rank() == 0 {
					out[s] = l
				}
			}
			tr.Scheduler().Barrier()
		})
		return out
	}
	owned := run(false)
	shared := run(true)
	for s := range owned {
		if owned[s] != shared[s] {
			t.Errorf("step %d: shared-scheduler loss %.17g != owned %.17g", s, shared[s], owned[s])
		}
	}
}
