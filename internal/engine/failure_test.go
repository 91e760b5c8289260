package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
)

// rankDeaths maps each rank to its death in an error returned by Run: the
// comm.Killed or comm.RankFailure joined under ErrRankFailed, keyed by the
// rank it names (the dying rank, or the rank that observed a peer's death).
func rankDeaths(err error) map[int]error {
	deaths := map[int]error{}
	var walk func(error)
	walk = func(err error) {
		switch v := err.(type) {
		case comm.Killed:
			deaths[v.Rank] = v
		case comm.RankFailure:
			deaths[v.Rank] = v
		case interface{ Unwrap() []error }:
			for _, e := range v.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(v.Unwrap())
		}
	}
	walk(err)
	return deaths
}

// runWithin runs Run and fails the test if the job does not return within
// d: a rank blocked on a dead peer is the deadlock rank death must not cause.
func runWithin(t *testing.T, d time.Duration, cfg Config, body func(*Engine)) (*comm.World, error) {
	t.Helper()
	type result struct {
		w   *comm.World
		err error
	}
	ch := make(chan result, 1)
	go func() {
		w, err := Run(cfg, body)
		ch <- result{w, err}
	}()
	select {
	case r := <-ch:
		return r.w, r.err
	case <-time.After(d):
		t.Fatalf("Run did not return within %v: ranks deadlocked on a dead peer", d)
		return nil, nil
	}
}

// killStride is the step over kill points k in the sweep: every other wire
// op keeps the three configs within 3 s, and 15 s under the race detector.
const killStride = 2

// Kill-point sweep: for each rank and each kill point k in the first two
// steps' wire ops, a rank killed by FailRankAfterOps under plain Run yields
// ErrRankFailed with an error on every rank — the victim's a comm.Killed
// naming it — returns promptly, and leaks no goroutine (stream workers and
// rank goroutines all exit). One config runs stage 3 in fp16 with overlap,
// prefetch and clipping on 4 ranks, so deaths land on stream workers as
// well as rank goroutines; one runs testEngineConfig's stage 2 with overlap,
// prefetch and two-step accumulation, whose parameter gathers ride the
// prefetch stream in each boundary's first Forward; the last runs
// synchronous fp32 stage 0 with two-step accumulation.
func TestEngineKillPointSweep(t *testing.T) {
	s3 := testEngineConfig()
	s3.Stage, s3.Ranks = "3", 4
	s3.Precision = &PrecisionConfig{FP16Compute: true}
	s3.Overlap, s3.Prefetch, s3.GradClip = true, true, 1
	s3.GlobalBatch, s3.MicroBatch, s3.GradAccumSteps = 4, 4, 1
	s0 := testEngineConfig()
	s0.Stage = "0"
	for _, cfg := range []Config{s3, testEngineConfig(), s0} {
		norm, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("stage%s-ranks%d", norm.Stage, norm.Ranks), func(t *testing.T) {
			ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
			train := func(steps int) func(*Engine) {
				return func(e *Engine) {
					for s := 0; s < steps; s++ {
						e.TrainBatch(ids, targets)
					}
				}
			}
			// One step's wire ops per rank: the messages of a one-step job
			// less those of start-up alone.
			w0, err := Run(norm, train(0))
			if err != nil {
				t.Fatal(err)
			}
			w1, err := Run(norm, train(1))
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			for victim := 0; victim < norm.Ranks; victim++ {
				ops := int(w1.Stats(victim).Messages - w0.Stats(victim).Messages)
				// Killing inside the first two steps leaves a third that
				// every survivor enters and finds a dead peer in.
				for k := 1; k <= 2*ops; k += killStride {
					_, err := runWithin(t, 10*time.Second, norm, func(e *Engine) {
						if e.Rank() == victim {
							e.Comm().World().FailRankAfterOps(victim, k)
						}
						train(3)(e)
					})
					if !errors.Is(err, ErrRankFailed) {
						t.Fatalf("victim %d, k %d: Run error %v, want ErrRankFailed", victim, k, err)
					}
					deaths := rankDeaths(err)
					var killed comm.Killed
					if !errors.As(deaths[victim], &killed) || killed.Rank != victim {
						t.Fatalf("victim %d, k %d: victim's death %v, want Killed{%d}", victim, k, deaths[victim], victim)
					}
					if len(deaths) != norm.Ranks {
						t.Fatalf("victim %d, k %d: %d of %d ranks erred: %v", victim, k, len(deaths), norm.Ranks, err)
					}
				}
			}
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline: goroutines exit just after the waits that release their
// callers, so it polls briefly.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked", runtime.NumGoroutine()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A body that kills its own rank with Comm.Fail gets ErrRankFailed back
// from Run, with the world, instead of a panic that ends the process.
func TestEngineRunContainsCommFail(t *testing.T) {
	norm, err := testEngineConfig().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
	w, err := runWithin(t, 10*time.Second, norm, func(e *Engine) {
		e.TrainBatch(ids, targets)
		if e.Rank() == 1 {
			e.Comm().Fail()
		}
		e.TrainBatch(ids, targets)
	})
	if !errors.Is(err, ErrRankFailed) || w == nil {
		t.Fatalf("Run = (%v, %v), want the world and ErrRankFailed", w, err)
	}
	var killed comm.Killed
	if deaths := rankDeaths(err); !errors.As(deaths[1], &killed) || killed.Rank != 1 || deaths[0] == nil {
		t.Fatalf("deaths %v, want Killed{1} and an error on rank 0", deaths)
	}
}
