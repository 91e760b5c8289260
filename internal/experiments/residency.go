package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/tensor"
)

// The miniature world measureComputeResidency trains: small enough to run
// inside an experiment render, large enough that the workspace dwarfs the
// fixed per-trainer bookkeeping.
const residencyRanks = 4

var residencyModel = model.Config{Layers: 4, Hidden: 64, Heads: 4, Vocab: 96, Seq: 16}
var residencyPsi = residencyModel.ParamCount()

// computeResidency is one precision's measured per-rank compute footprint:
// the activation element width, the retained forward/backward workspace,
// and the full compute residency (workspace plus the parameter copy the
// kernels read).
type computeResidency struct {
	ActBytesPerElem       int
	WorkspaceBytes        int64
	ComputeResidencyBytes int64
}

// measureComputeResidency trains one batch on a miniature stage-2 world and
// reads the rank-0 trainer's retained workspace and compute residency off
// the live engine — the measured counterpart of the §6 residual-state
// analysis. With fp16Compute the model stores activations (and the weight
// views the fused kernels read) in 2 bytes with fp32 accumulation.
func measureComputeResidency(fp16Compute bool) computeResidency {
	cfg := engine.DefaultConfig()
	cfg.Model = residencyModel
	cfg.Ranks = residencyRanks
	cfg.Stage = "2"
	cfg.Optimizer.LR = 1e-3
	cfg.GlobalBatch = 2 * residencyRanks
	cfg.MicroBatch = cfg.GlobalBatch
	cfg.GradAccumSteps = 1
	cfg.Seed = 1
	if fp16Compute {
		cfg.Precision = &engine.PrecisionConfig{FP16Compute: true}
	}
	ids, targets := model.SyntheticBatch(5, cfg.GlobalBatch, cfg.Model.Seq, cfg.Model.Vocab)
	out := computeResidency{ActBytesPerElem: tensor.BytesPerFloat32}
	if fp16Compute {
		out.ActBytesPerElem = tensor.BytesPerHalf
	}
	_, err := engine.Run(cfg, func(e *engine.Engine) {
		e.TrainBatch(ids, targets) // materializes the lazily-sized workspace
		if e.Rank() == 0 {
			out.WorkspaceBytes = e.Trainer().Model.WorkspaceBytes()
			out.ComputeResidencyBytes = e.Trainer().ComputeResidencyBytes()
		}
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: residency run: %v", err))
	}
	return out
}
