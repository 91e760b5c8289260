// Elastic checkpointing & fault tolerance walkthrough: ZeRO's Ψ/N-sharded
// training state is not tied to the world size that produced it, and a
// world that loses a rank is not lost.
//
//  1. One snapshot of slabs: the slabs captured on 8 ranks are the
//     snapshot, and the ZELC file regroups for 4 ranks and back byte for
//     byte — the world size only tiles the payload, no float is ever
//     rewritten.
//  2. Elastic resume: the one snapshot taken at step 4 on 8 ranks loads
//     on 4 ranks (each copies its own partition out of the slabs;
//     matching loss trajectory, tolerance-level because the reduction tree
//     changed) and on 8 ranks (bitwise-identical to the uninterrupted run).
//  3. Kill & recover: a deterministic rank kill mid-run fails the world
//     cleanly, and the zeroserve supervisor restarts the job from its
//     newest boundary snapshot file — the run still reaches its step budget.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/zero"
)

var mcfg = model.Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 31, Seq: 12}

const (
	batch    = 16
	snapStep = 4 // boundary the elastic resume restarts from
	endStep  = 8
)

// config is the demo's stage-2 run on n ranks from init seed seed: one
// batch-row micro-batch per optimizer step.
func config(n int, seed int64) engine.Config {
	return engine.Config{
		Model: mcfg, Ranks: n, Stage: "2", Optimizer: engine.OptimizerConfig{LR: 1e-3},
		Seed: seed, GlobalBatch: batch, MicroBatch: batch,
	}
}

func main() {
	demoSlabSnapshot()
	demoElasticResume()
	demoKillRecover()
}

// trainAndCapture runs `steps` optimizer steps on n ranks and returns the
// per-step per-rank local losses (steps × n; rank r's loss covers its
// batch/n rows, so only the mean across ranks is comparable between world
// sizes) plus the snapshot Save gathers to rank 0 after step capAt.
func trainAndCapture(n, steps, capAt int) ([][]float64, *zero.Snapshot) {
	ids, targets := model.SyntheticBatch(42, batch, mcfg.Seq, mcfg.Vocab)
	losses := make([][]float64, steps)
	for s := range losses {
		losses[s] = make([]float64, n)
	}
	var snap *zero.Snapshot
	_, err := engine.Run(config(n, 9), func(e *engine.Engine) {
		for s := 1; s <= steps; s++ {
			losses[s-1][e.Rank()] = e.TrainBatch(ids, targets)
			if s == capAt {
				if sn := e.Save(); sn != nil {
					snap = sn
				}
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return losses, snap
}

// resume loads a consolidated snapshot into a fresh m-rank world (a
// different init seed, so the state demonstrably comes from the
// checkpoint) and trains from snapStep to endStep, returning the per-step
// per-rank local losses.
func resume(m int, snap *zero.Snapshot) [][]float64 {
	ids, targets := model.SyntheticBatch(42, batch, mcfg.Seq, mcfg.Vocab)
	losses := make([][]float64, endStep-snapStep)
	for s := range losses {
		losses[s] = make([]float64, m)
	}
	_, err := engine.Run(config(m, 4242), func(e *engine.Engine) {
		if err := e.Load(snap); err != nil {
			log.Fatal(err)
		}
		for s := snapStep + 1; s <= endStep; s++ {
			losses[s-snapStep-1][e.Rank()] = e.TrainBatch(ids, targets)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return losses
}

// globalLoss folds equal-weight rank-local losses into the global batch
// mean (every rank computes batch/n rows), summing in rank order so the
// value is deterministic for a given world size.
func globalLoss(local []float64) float64 {
	sum := 0.0
	for _, l := range local {
		sum += l
	}
	return sum / float64(len(local))
}

// encode writes snap as ZELC into memory.
func encode(snap *zero.Snapshot) []byte {
	var b bytes.Buffer
	if _, err := snap.WriteTo(&b); err != nil {
		log.Fatal(err)
	}
	return b.Bytes()
}

// regroup decodes a ZELC blob and re-encodes it as an m-rank world would
// have captured it.
func regroup(blob []byte, m int) []byte {
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		log.Fatal(err)
	}
	if snap, err = snap.Regroup(m); err != nil {
		log.Fatal(err)
	}
	return encode(snap)
}

func demoSlabSnapshot() {
	fmt.Println("== 1. one flat snapshot, ZELC on disk ==")
	_, snap := trainAndCapture(8, 3, 3)
	blob := encode(snap)
	fmt.Printf("8-rank stage-%d snapshot: Ψ = %d params, %d opt steps → %d bytes of ZELC\n",
		int(snap.Stage), snap.NumParams, snap.OptSteps, len(blob))

	blob4 := regroup(blob, 4)
	if bytes.Equal(blob4, blob) || !bytes.Equal(regroup(blob4, 8), blob) {
		log.Fatal("8 → 4 → 8 regrouping did not reproduce the file")
	}
	floats := 0
	for _, slab := range snap.Slabs {
		floats += len(slab)
	}
	fmt.Printf("8 → 4 → 8: payload regrouped by each world's partition, all %d params + %d opt tensors byte-identical\n\n",
		snap.NumParams, floats/snap.NumParams-1)
}

func demoElasticResume() {
	fmt.Println("== 2. elastic resume: N=8 → M=4 and N=8 → N=8 ==")
	ref, snap := trainAndCapture(8, endStep, snapStep)
	fmt.Printf("reference on 8 ranks, snapshot at step %d: global loss %.4f → %.4f\n",
		snapStep, globalLoss(ref[0]), globalLoss(ref[endStep-1]))

	shrunk := resume(4, snap)
	fmt.Printf("resumed on 4 ranks, each slicing its partition of the snapshot:\n")
	for i, local := range shrunk {
		step := snapStep + 1 + i
		l, want := globalLoss(local), globalLoss(ref[step-1])
		diff := math.Abs(l - want)
		fmt.Printf("  step %d: global loss %.6f (uninterrupted %.6f, |Δ| %.2e)\n", step, l, want, diff)
		if diff > 1e-3 {
			log.Fatalf("step %d: shrunk-world loss diverged beyond tolerance", step)
		}
	}

	same := resume(8, snap)
	for i, local := range same {
		for r, l := range local {
			if l != ref[snapStep+i][r] {
				log.Fatalf("step %d rank %d: same-world resume is not bitwise (%.17g != %.17g)",
					snapStep+1+i, r, l, ref[snapStep+i][r])
			}
		}
	}
	fmt.Printf("resumed on 8 ranks from the same snapshot: steps %d–%d bitwise-identical to the uninterrupted run\n\n",
		snapStep+1, endStep)
}

func demoKillRecover() {
	fmt.Println("== 3. kill & recover through the zeroserve supervisor ==")
	sched, err := serve.NewScheduler(serve.Config{MaxWorlds: 1, QueueDepth: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched.Drain(ctx) //nolint:errcheck // example teardown
	}()

	cfg := engine.DefaultConfig()
	cfg.Model = mcfg
	cfg.Ranks = 2
	cfg.Stage = "2"
	cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps = 8, 4, 2
	cfg.Seed = 11
	spec := serve.Spec{
		Steps:         6,
		Config:        cfg,
		SnapshotEvery: 1,
		MaxRestarts:   1,
		Fault:         &serve.FaultSpec{Rank: 1, Step: 3},
	}
	fmt.Printf("job: %d steps on %d ranks, snapshot every step, fault: kill rank %d after step %d\n",
		spec.Steps, cfg.Ranks, spec.Fault.Rank, spec.Fault.Step)
	j, err := sched.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	for !j.State().Terminal() {
		time.Sleep(5 * time.Millisecond)
	}
	st := j.Status()
	if st.State != serve.StateSucceeded {
		log.Fatalf("job %s: state %s (%s)", st.ID, st.State, st.Error)
	}
	fmt.Printf("rank %d died mid-run; supervisor restarted from the newest boundary snapshot file\n", spec.Fault.Rank)
	fmt.Printf("job %s: %s after %d restart(s), %d/%d steps, final loss %.4f\n",
		st.ID, st.State, st.Restarts, st.StepsDone, st.Steps, st.LastLoss)
}
