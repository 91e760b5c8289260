package zero

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// The zero-allocation steady-state contract: after warm-up, a training step
// performs no heap allocation on any rank — the collective wire copies ride
// the world's pooled buffers, the trainer replays its cached bucket plan,
// and the model reuses its activation/gradient workspace. These tests pin
// it with a direct Mallocs count around a measured window of steps.
//
// GOMAXPROCS is left alone: the matmul kernels fan out over the tensor
// package's persistent worker pool, which dispatches without allocating,
// so the zero-allocation contract holds with parallel kernels engaged.

// allocCfg is small so the sweep stays fast; every code path (buckets,
// overlap, prefetch, hierarchy) still executes.
var allocCfg = model.Config{Layers: 2, Hidden: 32, Heads: 2, Vocab: 32, Seq: 16}

// maxSteadyAllocsPerStep bounds the measured whole-world allocations per
// steady-state step. The budget is 0 in a deterministic schedule; a tiny
// slack absorbs arena free-list high-water drift across goroutine
// interleavings (a Get can race a Put and allocate once).
const maxSteadyAllocsPerStep = 8

// measureStepAllocs runs warm-up steps, then measures process-wide heap
// allocations across each of K steps executed by every rank of the world,
// and returns the K per-step counts.
func measureStepAllocs(t *testing.T, ranks int, opts Options) []float64 {
	t.Helper()
	const warm, K = 3, 6
	const batch = 4
	ids, targets := model.SyntheticBatch(1, batch, allocCfg.Seq, allocCfg.Vocab)
	w := comm.NewWorld(ranks)
	perStep := make([]float64, K)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, allocCfg, opts)
		defer tr.Close()
		for i := 0; i < warm; i++ {
			tr.Step(ids, targets, batch)
		}
		// All ranks quiesce; rank 0 snapshots the allocator between the
		// barriers, while the other ranks are parked inside the second
		// barrier (no step work, no allocation).
		var m0, m1 runtime.MemStats
		for i := 0; i < K; i++ {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m0)
			}
			c.Barrier()
			tr.Step(ids, targets, batch)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m1)
				perStep[i] = float64(m1.Mallocs - m0.Mallocs)
			}
		}
		c.Barrier()
	})
	return perStep
}

// meanAllocs is the mean of measureStepAllocs' per-step counts.
func meanAllocs(perStep []float64) float64 {
	var sum float64
	for _, n := range perStep {
		sum += n
	}
	return sum / float64(len(perStep))
}

func TestSteadyStateStepAllocations(t *testing.T) {
	for _, stage := range AllStages {
		for _, mode := range []struct {
			name              string
			overlap, prefetch bool
		}{
			{"sync", false, false},
			{"overlap", true, false},
			{"prefetch", false, true},
		} {
			if mode.prefetch && stage != StageFull {
				continue // prefetch is a stage-3 schedule
			}
			name := fmt.Sprintf("stage=%d/%s", int(stage), mode.name)
			t.Run(name, func(t *testing.T) {
				got := meanAllocs(measureStepAllocs(t, 4, Options{
					Stage: stage, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
					BucketElems: 512, Overlap: mode.overlap, Prefetch: mode.prefetch,
				}))
				if got > maxSteadyAllocsPerStep {
					t.Errorf("steady-state step allocates %.1f objects (budget %d)", got, maxSteadyAllocsPerStep)
				}
			})
		}
	}
	// fp16 compute with inline activation checkpointing: the block inputs'
	// 2-byte stores and the recompute live in the reused workspace, so the
	// median step allocates nothing at all.
	for _, stage := range []Stage{StageOSGrad, StageFull} {
		t.Run(fmt.Sprintf("stage=%d/fp16compute+checkpoint", int(stage)), func(t *testing.T) {
			perStep := measureStepAllocs(t, 4, Options{
				Stage: stage, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1, BucketElems: 512,
				FP16Compute: true, Checkpoint: true,
			})
			if raceEnabled {
				// Exact counts are not deterministic under -race, for a cause
				// not yet found (ROADMAP item 18): hold the rows to the budget.
				if got := meanAllocs(perStep); got > maxSteadyAllocsPerStep {
					t.Errorf("steady-state step allocates %.1f objects (budget %d)", got, maxSteadyAllocsPerStep)
				}
				return
			}
			sorted := slices.Sorted(slices.Values(perStep))
			if median := sorted[len(sorted)/2]; median != 0 {
				t.Errorf("steady-state steps allocate %v objects, want a median of 0", perStep)
			}
		})
	}
}

// Clipping (its N-float norm-partial gather), hierarchy, LAMB and the fp16
// compute path (half gathers through the wire pool) compose into the same
// zero-allocation steady state.
func TestSteadyStateStepAllocationsComposed(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"fp16+clip+overlap", Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
			BucketElems: 512, Overlap: true, FP16Compute: true, ClipNorm: 1}},
		{"hier+overlap", Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
			BucketElems: 512, Overlap: true, NodeSize: 2}},
		{"lamb", Options{Stage: StageOS, Seed: 1,
			Optimizer: optimizer.Spec{Kind: optimizer.KindLAMB, LR: 1e-3}}},
		{"fp16compute+s3+overlap+prefetch", Options{Stage: StageFull, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
			BucketElems: 512, Overlap: true, Prefetch: true, FP16Compute: true}},
		{"fp16compute+s2+overlap", Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
			BucketElems: 512, Overlap: true, FP16Compute: true}},
		{"fp16compute+s3+hier", Options{Stage: StageFull, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
			BucketElems: 512, FP16Compute: true, NodeSize: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := meanAllocs(measureStepAllocs(t, 4, tc.opts))
			if got > maxSteadyAllocsPerStep {
				t.Errorf("steady-state step allocates %.1f objects (budget %d)", got, maxSteadyAllocsPerStep)
			}
		})
	}
}

// Pool hygiene: Close releases the model workspace, and a second trainer in
// the same process re-uses the world's wire pool instead of re-growing it.
func TestTrainerTeardownReleasesWorkspace(t *testing.T) {
	const ranks, batch, steps = 2, 4, 4
	ids, targets := model.SyntheticBatch(1, batch, allocCfg.Seq, allocCfg.Vocab)
	w := comm.NewWorld(ranks)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1, BucketElems: 512, Overlap: true}

	runTrainer := func() {
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, allocCfg, opts)
			for i := 0; i < steps; i++ {
				tr.Step(ids, targets, batch)
			}
			if got := tr.Model.WorkspaceBytes(); got == 0 {
				t.Errorf("rank %d: workspace empty after %d steps (expected a warmed workspace)", c.Rank(), steps)
			}
			tr.Close()
			if got := tr.Model.WorkspaceBytes(); got != 0 {
				t.Errorf("rank %d: workspace retains %d bytes after Close, want 0", c.Rank(), got)
			}
		})
	}

	runTrainer()
	gets1, misses1 := w.WirePool().Stats()
	resident1 := w.WirePool().Resident()
	if gets1 == 0 || resident1 == 0 {
		t.Fatalf("wire pool unused after first trainer (gets=%d resident=%d)", gets1, resident1)
	}

	runTrainer()
	gets2, misses2 := w.WirePool().Stats()
	resident2 := w.WirePool().Resident()
	newGets, newMisses := gets2-gets1, misses2-misses1
	// The second trainer's traffic pattern matches the first, so its wire
	// buffers come from the warmed pool: essentially no new allocations…
	if newGets == 0 {
		t.Fatal("second trainer sent no pooled traffic")
	}
	if newMisses > newGets/20 {
		t.Errorf("second trainer missed the wire pool %d/%d times — pool not reused across trainers", newMisses, newGets)
	}
	// …and the pooled footprint does not stack one trainer's working set on
	// top of the other's.
	if resident2 > resident1+resident1/2 {
		t.Errorf("wire pool resident grew %d → %d bytes across sequential trainers (double-residency)", resident1, resident2)
	}

	// Explicit release hands the pool back to the GC.
	w.WirePool().Release()
	if got := w.WirePool().Resident(); got != 0 {
		t.Errorf("wire pool retains %d bytes after Release", got)
	}
}
