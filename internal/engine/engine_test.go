package engine

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/zero"
)

// encode is the snapshot's ZELC bytes.
func encode(s *zero.Snapshot) ([]byte, error) {
	var b bytes.Buffer
	_, err := s.WriteTo(&b)
	return b.Bytes(), err
}

// testEngineConfig is a small accumulating stage-2 job used across the
// lifecycle tests.
func testEngineConfig() Config {
	c := DefaultConfig()
	c.Model = model.Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 19, Seq: 8}
	c.Ranks = 2
	c.Optimizer.LR = 1e-3
	c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 8, 4, 2
	c.BucketElems = 193
	return c
}

// The Step contract: the optimizer fires exactly on every
// GradAccumSteps-th call, BatchLoss materializes at the boundary, and the
// micro counter resets.
func TestEngineStepFiresOnBoundary(t *testing.T) {
	cfg := testEngineConfig()
	cfg.GradAccumSteps, cfg.MicroBatch, cfg.GlobalBatch = 3, 4, 12
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.MicroBatch, norm.Model.Seq, norm.Model.Vocab)
	_, err = Run(norm, func(e *Engine) {
		for b := 0; b < 2; b++ {
			for j := 0; j < norm.GradAccumSteps; j++ {
				loss := e.Forward(ids, targets)
				e.Backward()
				fired := e.Step()
				if want := j == norm.GradAccumSteps-1; fired != want {
					t.Errorf("boundary %d micro %d: Step fired=%v, want %v", b, j, fired, want)
				}
				if fired && e.Rank() == 0 {
					if e.BatchLoss() == 0 || loss == 0 {
						t.Error("BatchLoss not materialized at the boundary")
					}
					if e.micro != 0 {
						t.Error("micro counter did not reset at the boundary")
					}
				}
			}
		}
		if e.Steps() != 2 {
			t.Errorf("Steps() = %d, want 2", e.Steps())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TrainBatch == the explicit Forward/Backward/Step loop, and the engine
// actually trains (the boundary loss descends).
func TestEngineTrainBatchDescends(t *testing.T) {
	cfg := testEngineConfig()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
	var first, last float64
	_, err = Run(norm, func(e *Engine) {
		for s := 0; s < 10; s++ {
			l := e.TrainBatch(ids, targets)
			if e.Rank() == 0 {
				if s == 0 {
					first = l
				}
				last = l
			}
		}
		// The accumulator is the owned partition, independent of k.
		if got, want := e.GradAccumElems(), e.Trainer().Owned().Len(); got != want {
			t.Errorf("rank %d: GradAccumElems = %d, want %d", e.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("accumulated training did not descend: %v -> %v", first, last)
	}
}

// Engine training with accumulation is race-clean under the overlapped +
// prefetched schedule (run with -race in the module's race gate): stage 3,
// all streams armed, two boundaries.
func TestEngineAccumOverlapPrefetchRace(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Stage = "3"
	cfg.Overlap, cfg.Prefetch = true, true
	cfg.Precision = &PrecisionConfig{FP16Compute: true}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(9, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
	if _, err := Run(norm, func(e *Engine) {
		for s := 0; s < 2; s++ {
			e.TrainBatch(ids, targets)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Step without a Forward/Backward pair is a programming error.
func TestEngineStepWithoutBackwardPanics(t *testing.T) {
	cfg := testEngineConfig()
	if _, err := Run(cfg, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from Step without Backward")
			}
		}()
		e.Step()
	}); err != nil {
		t.Fatal(err)
	}
}

// initialize rejects a world whose size disagrees with the config.
func TestInitializeWorldMismatch(t *testing.T) {
	cfg := testEngineConfig() // says 2 ranks
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		if _, err := initialize(c, cfg); !errors.Is(err, ErrWorld) {
			t.Errorf("initialize on wrong-sized world: err = %v, want ErrWorld", err)
		}
	})
}

// Run surfaces config errors instead of spawning a world.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Optimizer.Type = "adafactor"
	if _, err := Run(cfg, func(*Engine) { t.Error("body must not run") }); !errors.Is(err, ErrOptimizer) {
		t.Errorf("Run error = %v, want ErrOptimizer", err)
	}
}

// Save/Load through the engine: an accumulating run checkpoints at a
// boundary and resumes bitwise (the trainer-level guarantee surfaced
// through the Engine API).
func TestEngineSaveLoadResume(t *testing.T) {
	cfg := testEngineConfig()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)

	var ref float64
	if _, err := Run(norm, func(e *Engine) {
		var l float64
		for s := 0; s < 5; s++ {
			l = e.TrainBatch(ids, targets)
		}
		if e.Rank() == 0 {
			ref = l
		}
	}); err != nil {
		t.Fatal(err)
	}

	var blob []byte
	if _, err := Run(norm, func(e *Engine) {
		for s := 0; s < 2; s++ {
			e.TrainBatch(ids, targets)
		}
		if snap := e.Save(); snap != nil {
			blob, _ = encode(snap)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var resumed float64
	if _, err := Run(norm, func(e *Engine) {
		snap, err := zero.DecodeSnapshot(blob)
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.Load(snap); err != nil {
			t.Error(err)
			return
		}
		var l float64
		for s := 0; s < 3; s++ {
			l = e.TrainBatch(ids, targets)
		}
		if e.Rank() == 0 {
			resumed = l
		}
	}); err != nil {
		t.Fatal(err)
	}
	if resumed != ref {
		t.Errorf("resumed boundary loss %.17g != uninterrupted %.17g", resumed, ref)
	}
}

// zerotrain's conversion to the stream loop must not move the synthetic
// path by a single bit: TrainStream over a SyntheticStream replays
// TrainBatch on the materialized batch exactly.
func TestTrainStreamMatchesTrainBatchBitwise(t *testing.T) {
	cfg := testEngineConfig()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	run := func(stream bool) []float64 {
		losses := make([]float64, 0, steps)
		_, err := Run(norm, func(e *Engine) {
			ids, targets := model.SyntheticBatch(norm.Seed, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
			batcher := model.NewSyntheticStream(norm.Seed, norm.GlobalBatch, norm.MicroBatch, norm.Model.Seq, norm.Model.Vocab)
			for s := 0; s < steps; s++ {
				var l float64
				if stream {
					l = e.TrainStream(batcher)
				} else {
					l = e.TrainBatch(ids, targets)
				}
				if e.Rank() == 0 {
					losses = append(losses, l)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	batch, stream := run(false), run(true)
	for i := range batch {
		if batch[i] != stream[i] {
			t.Fatalf("step %d: TrainBatch loss %.17g != TrainStream loss %.17g", i+1, batch[i], stream[i])
		}
	}
}

// OnBoundary hooks fire at every boundary, after the observer, in
// registration order, and Load adopts the snapshot's step clock while
// rejecting mid-accumulation snapshots.
func TestEngineBoundaryHooksAndLoadClock(t *testing.T) {
	cfg := testEngineConfig()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
	var order [][]string
	var shared *zero.Snapshot
	_, err = Run(norm, func(e *Engine) {
		r := e.Rank()
		var log []string
		e.Observe(func(si StepInfo) { log = append(log, "observe") })
		e.OnBoundary(func(step int) { log = append(log, "hookA") })
		e.OnBoundary(func(step int) {
			log = append(log, "hookB")
			// Boundary hooks may run collectives — the elastic snapshotter's
			// contract. A barrier is the simplest collective.
			e.Trainer().Scheduler().Barrier()
		})
		for s := 0; s < 2; s++ {
			e.TrainBatch(ids, targets)
		}

		// Load only copies out, so every rank reads rank 0's snapshot.
		if snap := e.Save(); snap != nil {
			shared = snap
		}
		e.Comm().Barrier()
		if err := e.Load(shared); err != nil {
			t.Error(err)
		}
		if e.Steps() != 2 {
			t.Errorf("rank %d: Load set Steps()=%d, want 2 (snapshot's clock)", r, e.Steps())
		}
		bad := &zero.Snapshot{AccumMicros: 1}
		if err := e.Load(bad); err == nil {
			t.Errorf("rank %d: mid-accumulation snapshot accepted by engine Load", r)
		}
		if r == 0 {
			order = append(order, log)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"observe", "hookA", "hookB", "observe", "hookA", "hookB"}
	if len(order) != 1 || len(order[0]) != len(want) {
		t.Fatalf("boundary log %v, want %v", order, want)
	}
	for i := range want {
		if order[0][i] != want[i] {
			t.Fatalf("boundary log %v, want %v", order[0], want)
		}
	}
}

// Run contains a mid-training rank death: the killed rank and the
// survivors all return errors instead of deadlocking or crashing the
// process, and a healthy run reports no error at all.
func TestEngineRunOnFallible(t *testing.T) {
	cfg := testEngineConfig()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)

	if _, err := Run(norm, func(e *Engine) {
		for s := 0; s < 3; s++ {
			e.TrainBatch(ids, targets)
		}
	}); err != nil {
		t.Fatalf("healthy run: %v", err)
	}

	w, err := Run(norm, func(e *Engine) {
		if e.Rank() == 1 {
			e.Comm().World().FailRankAfterOps(1, 40)
		}
		for s := 0; s < 50; s++ {
			e.TrainBatch(ids, targets)
		}
	})
	if !errors.Is(err, ErrRankFailed) || w == nil {
		t.Fatalf("Run = (%v, %v), want the world and ErrRankFailed", w, err)
	}
	deaths := rankDeaths(err)
	var killed comm.Killed
	if !errors.As(deaths[1], &killed) || killed.Rank != 1 {
		t.Errorf("rank 1 should die Killed, got %v", deaths[1])
	}
	for r := 0; r < norm.Ranks; r++ {
		if deaths[r] == nil {
			t.Errorf("rank %d survived a dead world (deadlock risk): all ranks must error out", r)
		}
	}
}
