// Quickstart: train a small GPT-2-like model on a simulated 4-GPU cluster
// through the declarative Engine API — the checked-in config.json describes
// the run (ZeRO-DP stage 2, mixed precision, gradient accumulation), and
// the training loop is the paper's three calls: Forward, Backward, Step.
// A baseline data-parallel run (the same engine at stage 0) shows what
// partitioning and accumulation buy in memory and wire traffic.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

//go:embed config.json
var configJSON []byte

func main() {
	cfg, err := engine.ParseConfig(configJSON)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err = cfg.Normalized()
	if err != nil {
		log.Fatal(err)
	}
	const steps = 20
	psi := cfg.Model.ParamCount()
	fmt.Printf("config: stage %s | %d ranks | global batch %d = %d micro × %d accumulation steps\n",
		cfg.Stage, cfg.Ranks, cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps)
	fmt.Printf("model: %d layers, hidden %d → Ψ = %d parameters\n\n", cfg.Model.Layers, cfg.Model.Hidden, psi)

	ids, targets := model.SyntheticBatch(42, cfg.GlobalBatch, cfg.Model.Seq, cfg.Model.Vocab)

	// Baseline: the same engine, config switched to replicated DP (stage 0,
	// fp32) — every rank all-reduces every micro-batch's full gradient.
	ddpCfg := cfg
	ddpCfg.Stage = "0"
	ddpCfg.Precision = nil
	var ddpLoss float64
	ddpWorld, err := engine.Run(ddpCfg, func(e *engine.Engine) {
		for s := 0; s < steps; s++ {
			l := e.TrainBatch(ids, targets)
			if e.Rank() == 0 {
				ddpLoss = l
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// The configured run: ZeRO stage 2 with fp16 compute, bucketed
	// overlap, and the gradient accumulated post-reduce-scatter — so each
	// rank's cross-micro-batch state is its Ψ/N partition (§5.2), and the
	// parameters are gathered ONCE per boundary, group by group in its first
	// Forward.
	var zeroLoss float64
	var stateBytes int64
	var accumElems int
	zeroWorld, err := engine.Run(cfg, func(e *engine.Engine) {
		// The explicit lifecycle, spelled out once (TrainBatch wraps it):
		seqLen := len(ids) / cfg.GlobalBatch
		mt := cfg.MicroBatch * seqLen
		for s := 0; s < steps; s++ {
			for j := 0; j < cfg.GradAccumSteps; j++ {
				e.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt])
				e.Backward()
				e.Step() // fires on the k-th micro-batch only
			}
			if e.Rank() == 0 && (s == 0 || (s+1)%5 == 0) {
				fmt.Printf("  step %2d  loss %.4f\n", s+1, e.BatchLoss())
			}
		}
		if e.Rank() == 0 {
			zeroLoss = e.BatchLoss()
			stateBytes = e.ModelStateBytes()
			accumElems = e.GradAccumElems()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal loss:  ZeRO Pos+g %.4f  |  baseline DP %.4f  (same descent)\n", zeroLoss, ddpLoss)
	fmt.Printf("predicted model-state per rank (§3.1): ZeRO %d bytes vs DP %d bytes (%.1fx reduction)\n",
		stateBytes, int64(psi)*16, float64(psi*16)/float64(stateBytes))
	fmt.Printf("gradient state across micro-batches: %d elems (Ψ/N — never the full Ψ=%d, §5.2)\n",
		accumElems, psi)
	zs, ds := zeroWorld.Stats(0), ddpWorld.Stats(0)
	k := cfg.GradAccumSteps
	fmt.Printf("wire elems per optimizer step per rank: ZeRO %d vs DP %d — (k+1)/2k = %.2f of DDP at k=%d\n",
		zs.ElemsSent/steps, ds.ElemsSent/steps, float64(k+1)/float64(2*k), k)
	fmt.Printf("wire bytes per optimizer step per rank: ZeRO %d (fp16, measured) vs DP %d (fp32)\n",
		zs.BytesSent/steps, ds.BytesSent/steps)
	fmt.Printf("ZeRO traffic by stream: %d elems on %q (gradient buckets overlapped with backward), %d on %q (parameter gathers)\n",
		zs.PerStream[zero.StreamGrad], zero.StreamGrad, zs.PerStream[zero.StreamPrefetch], zero.StreamPrefetch)
}
