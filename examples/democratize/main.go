// Democratize: the paper's §10.4 story. Data scientists get 13B-parameter
// training with plain data parallelism — no model parallelism, no model
// refactoring — because ZeRO removes the replicated model states that make
// baseline DP run out of memory at 1.4B.
//
// The example first plans memory for the paper-scale models (13B on 128
// V100s), then demonstrates the identical API at laptop scale: the same
// engine config that would drive the 13B run trains a small model across
// simulated ranks, stage 3 partitioning everything.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

func main() {
	// Part 1: the memory plan that makes 13B-without-MP possible.
	const (
		gpus   = 128
		budget = 32 * zero.GB
	)
	fmt.Println("Per-GPU model-state memory on 128 GPUs (32 GB V100s):")
	fmt.Printf("%-8s %-14s %-14s %-10s\n", "Model", "Baseline DP", "ZeRO Pos+g", "Fits?")
	for _, m := range []struct {
		label string
		psi   int64
	}{
		{"1.4B", 1_400_000_000},
		{"8B", 8_000_000_000},
		{"13B", 13_000_000_000},
		{"100B", 100_000_000_000},
	} {
		base := zero.ModelStateGB(m.psi, zero.StageDDP, gpus)
		z := zero.ModelStateGB(m.psi, zero.StageOSGrad, gpus)
		verdict := "baseline OOM, ZeRO OK"
		switch {
		case base*zero.GB <= budget:
			verdict = "both fit"
		case z*zero.GB > budget:
			verdict = "needs stage 3 / MP"
		}
		fmt.Printf("%-8s %9.1f GB  %9.1f GB   %s\n", m.label, base, z, verdict)
	}

	// Part 2: the same API at laptop scale, with full partitioning (stage
	// 3) through the declarative engine config — the data scientist writes
	// a config, not a parallelization strategy.
	fmt.Println("\nTraining through engine.Run at stage 3 (Pos+g+p), 4 ranks:")
	cfg := engine.DefaultConfig()
	cfg.Model = model.Config{Layers: 3, Hidden: 48, Heads: 4, Vocab: 67, Seq: 24}
	cfg.Stage = "3"
	cfg.Seed = 11
	cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps = 8, 0, 1
	ids, targets := model.SyntheticBatch(1, cfg.GlobalBatch, cfg.Model.Seq, cfg.Model.Vocab)
	if _, err := engine.Run(cfg, func(e *engine.Engine) {
		for s := 0; s < 15; s++ {
			loss := e.TrainBatch(ids, targets)
			if e.Rank() == 0 && s%5 == 0 {
				own := e.Owned()
				fmt.Printf("  step %2d  loss %.4f  (rank 0 stores params [%d,%d) of %d)\n",
					s, loss, own.Lo, own.Hi, e.NumParams())
			}
		}
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNo model refactoring: the model code is identical under DDP and every ZeRO stage.")
}
