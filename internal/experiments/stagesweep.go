package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/zero"
)

// StageSweepConfig parameterizes the measured stage sweep. Base is an
// engine.Config — the one constructor every entry point shares — so
// cmd/zerobench's -stage/-bucket/-ranks/-nodesize flags mutate the same
// struct zerotrain and the examples run, and a new knob cannot silently
// diverge between them. The sweep derives its global batch (2 rows per
// rank) and fixes k=1; AccumSweep covers the accumulation axis.
type StageSweepConfig struct {
	// Base carries the shared knobs: Ranks, BucketElems, NodeSize, seed.
	Base engine.Config
	// Steps is the measured optimizer steps per row.
	Steps int
	// Stages restricts the sweep (nil sweeps all four).
	Stages []zero.Stage
}

// DefaultStageSweep is the configuration zerobench uses when no flags are
// given: all four stages on a 4-rank world.
func DefaultStageSweep() StageSweepConfig {
	base := engine.DefaultConfig()
	base.Model = model.Config{Layers: 3, Hidden: 32, Heads: 4, Vocab: 31, Seq: 8}
	base.Optimizer.LR = 1e-3
	base.Seed = 1
	base.NodeSize = 0
	return StageSweepConfig{Base: base, Steps: 3}
}

// sweepRow builds one row's engine config from the shared base.
func (sc StageSweepConfig) sweepRow(stage zero.Stage, fp16, overlap, prefetch bool, bucket int) engine.Config {
	cfg := sc.Base
	cfg.Stage = engine.StageSpec(fmt.Sprint(int(stage)))
	cfg.Precision = nil
	if fp16 {
		cfg.Precision = &engine.PrecisionConfig{FP16Compute: true}
	}
	cfg.Overlap = overlap
	cfg.Prefetch = prefetch
	cfg.BucketElems = bucket
	cfg.GlobalBatch = 2 * cfg.Ranks
	cfg.MicroBatch = cfg.GlobalBatch
	cfg.GradAccumSteps = 1
	return cfg
}

// StageSweep measures the unified Stage API end to end on the real
// engines: for each ZeRO-DP stage it trains a small model through
// engine.Run and reports the wire traffic per rank per step —
// elements counted by the collectives and bytes counted *natively* by the
// dtype-tagged buffers (comm.Stats records each op at its Buffer's wire
// width, so the fp16 column is measured, not elems × convention) — and the
// wall-clock of the synchronous schedule versus the streamed schedule
// (grad-stream bucket overlap, plus prefetch of the stage-3 parameter
// gathers).
//
// The seed baseline row is the pre-Stage-API synchronous path: replicated
// DP whose gradients cross the wire in fp32 (4 bytes/element, the only
// width the seed's collectives knew). The ZeRO rows run mixed precision,
// so their gradients and parameters move as fp16 (2 bytes/element, §3.1) —
// which is why every stage, including Pos+g, moves fewer bytes per step
// than the seed path even when the element counts match.
func StageSweep(sc StageSweepConfig) Table {
	if sc.Base.Ranks <= 0 {
		sc.Base.Ranks = 4
	}
	if sc.Steps <= 0 {
		sc.Steps = 3
	}
	stages := sc.Stages
	if len(stages) == 0 {
		stages = zero.AllStages
	}
	cfg := sc.Base.Model
	psi := int64(cfg.ParamCount())
	ranks := sc.Base.Ranks
	batch := 2 * ranks
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	// Nodes of 1 or of every rank are flat; any other size must tile the
	// world (engine.Run rejects it otherwise).
	hier := sc.Base.NodeSize > 1 && sc.Base.NodeSize < ranks

	// run returns per-rank elements, native bytes and inter-node bytes sent
	// per step, and the mean step time.
	run := func(rowCfg engine.Config) (elemsPerRankStep, bytesPerRankStep, interBytesPerRankStep float64, stepTime time.Duration) {
		start := time.Now()
		w, err := engine.Run(rowCfg, func(e *engine.Engine) {
			for s := 0; s < sc.Steps; s++ {
				e.TrainBatch(ids, targets)
			}
		})
		if err != nil {
			panic(fmt.Sprintf("stagesweep: %v", err))
		}
		elapsed := time.Since(start)
		var interBytes int64
		for r := 0; r < ranks; r++ {
			interBytes += w.Stats(r).PerGroup["hier-inter"].Bytes
		}
		perRankStep := float64(ranks * sc.Steps)
		return float64(w.TotalElemsSent()) / perRankStep,
			float64(w.TotalBytesSent()) / perRankStep,
			float64(interBytes) / perRankStep,
			elapsed / time.Duration(sc.Steps)
	}

	// Seed baseline: synchronous replicated DP, fp32 wire, unbucketed, flat.
	seedCfg := sc.sweepRow(zero.StageDDP, false, false, false, 0)
	seedCfg.NodeSize = 0
	seedElems, seedBytes, _, seedTime := run(seedCfg)

	rows := [][]string{{
		"seed sync DP", "fp32", fmtF(seedElems, 0), fmtF(seedBytes, 0), "1.00x", "-", "-",
		fmt.Sprint(seedTime.Round(time.Microsecond)), "-", "-",
	}}
	for _, st := range stages {
		base := sc.sweepRow(st, true, false, false, sc.Base.BucketElems)
		elems, bytes, interBytes, syncTime := run(base)
		over := sc.sweepRow(st, true, true, true, sc.Base.BucketElems)
		_, _, _, overTime := run(over)
		interMeas, interPred := "-", "-"
		if hier {
			// mult·(Ψ/S)·(M-1)/M elements per rank per step cross nodes
			// (mult = the stage's full-width passes), at 2 B/elem fp16.
			mult := 2.0
			if st == zero.StageFull {
				mult = 3.0
			}
			_, interElems := perfmodel.HierarchicalSplit(psi, sc.Base.NodeSize, ranks/sc.Base.NodeSize)
			interMeas = fmtF(interBytes, 0)
			interPred = fmtF(mult*interElems*2, 0)
		}
		rows = append(rows, []string{
			"ZeRO " + st.String(), "fp16",
			fmtF(elems, 0), fmtF(bytes, 0),
			fmtF(bytes/seedBytes, 2) + "x",
			interMeas, interPred,
			fmt.Sprint(syncTime.Round(time.Microsecond)),
			fmt.Sprint(overTime.Round(time.Microsecond)),
			fmtF(float64(syncTime)/float64(overTime), 2) + "x",
		})
	}
	topoNote := "flat topology (every collective is one ring over all ranks)"
	if hier {
		topoNote = fmt.Sprintf("hierarchical topology: M=%d nodes of S=%d ranks; inter-node prediction\n"+
			"is mult·(Ψ/S)·(M-1)/M fp16 bytes per rank per step (mult=2, or 3 at Pos+g+p)",
			ranks/sc.Base.NodeSize, sc.Base.NodeSize)
	}
	return Table{
		Title: "Stage sweep: wire traffic and step time per ZeRO-DP stage",
		Note: fmt.Sprintf("Ψ=%d params, N=%d ranks, bucket=%d elems; bytes measured natively by\n"+
			"dtype-tagged buffers (fp16 = 2 B/elem on the wire); %s.\n"+
			"Step times are wall-clock of this run (overlap = grad-stream buckets + stage-3\n"+
			"prefetch stream). All rows run through engine.Run.",
			psi, ranks, sc.Base.BucketElems, topoNote),
		Header: []string{"System", "Wire", "Elems/rank/step", "Bytes/rank/step (measured)", "vs seed",
			"Inter-B/rank/step", "Inter-B predicted", "Step (sync)", "Step (overlap)", "Speedup"},
		Rows: rows,
	}
}

// stageThroughputModels are the Fig-2 ladder shapes re-run as pure ZeRO-DP
// (MP=1) for the stage sweep.
var stageThroughputModels = []struct {
	label                 string
	layers, hidden, heads int
}{
	{"1.5B", 48, 1600, 16},
	{"8B", 72, 3072, 24},
	{"40B", 88, 6144, 32},
	{"100B", 125, 8192, 64},
}

// StageThroughput sweeps all four ZeRO-DP stages through the performance
// model: for each model size it finds the largest micro-batch whose model
// states plus residual states fit a 32 GB device at that stage, then
// estimates per-GPU throughput with the overlapped schedule and with the
// synchronous (SyncComm) schedule. Higher stages fit larger models and
// afford larger batches (the Fig-3 superlinearity mechanism); stage 3 pays
// 3Ψ communication for Ψ/Nd residency.
func StageThroughput() Table {
	const (
		gpus   = 64
		budget = 32 * perfmodel.GB
	)
	var rows [][]string
	for _, m := range stageThroughputModels {
		for _, st := range zero.AllStages {
			cfg := perfmodel.Config{
				Shape: perfmodel.GPT2Like(m.layers, m.hidden, m.heads), MP: 1, DP: gpus,
				ZeRO: perfmodel.ZeROConfig{Stage: int(st), CB: true, MD: true},
			}
			maxBatch := 0
			for b := 1; b <= 64; b *= 2 {
				cfg.MicroBatch = b
				if perfmodel.DeviceBytes(cfg) <= budget {
					maxBatch = b
				}
			}
			if maxBatch == 0 {
				rows = append(rows, []string{m.label, st.String(), "OOM", "-", "-", "-"})
				continue
			}
			cfg.MicroBatch = maxBatch
			mk := func(sync bool) float64 {
				// The streamed schedule overlaps gradient buckets and
				// prefetches the stage-3 parameter gathers; the sync
				// schedule exposes everything.
				cfg.ZeRO.SyncComm, cfg.ZeRO.Prefetch = sync, !sync
				return perfmodel.Estimate(hw, cfg).TFlopsPerGPU
			}
			overlapTF, syncTF := mk(false), mk(true)
			rows = append(rows, []string{
				m.label, st.String(), fmt.Sprint(maxBatch),
				fmtF(overlapTF, 1), fmtF(syncTF, 1),
				fmtF(overlapTF/syncTF, 2) + "x",
			})
		}
	}
	return Table{
		Title: "Stage throughput sweep: ZeRO-DP stages 0-3, 64 GPUs, 32 GB budget",
		Note: "Max micro-batch fitting model+residual states per stage; TF/GPU from the\n" +
			"performance model with the streamed schedule (bucket overlap + stage-3 gather\n" +
			"prefetch) vs the fully synchronous schedule.",
		Header: []string{"Model", "Stage", "Max batch", "TF/GPU (overlap)", "TF/GPU (sync)", "Gain"},
		Rows:   rows,
	}
}

// StageMemory is the Figure-1-style per-device model-state table swept
// across every stage of the unified API and a ladder of DP degrees —
// Table 1 keeps the paper's three-stage layout, this covers stage 0 too.
// Below the analytic ladder it appends the residual-state story (§6),
// measured on a live miniature engine: the fp16 compute path stores
// activations at 2 bytes/element and serves the kernels a 2-byte weight
// view, so the per-rank compute residency is read off the real trainer in
// both precisions, not estimated.
func StageMemory() Table {
	const psi = 7_500_000_000
	dps := []int{1, 4, 16, 64, 256, 1024}
	header := []string{"Stage"}
	for _, nd := range dps {
		header = append(header, fmt.Sprintf("Nd=%d", nd))
	}
	var rows [][]string
	for _, st := range zero.AllStages {
		row := []string{st.String()}
		for _, nd := range dps {
			row = append(row, fmtF(perfmodel.ModelStateGB(psi, int(st), nd), 2))
		}
		rows = append(rows, row)
	}
	f32 := measureComputeResidency(false)
	f16 := measureComputeResidency(true)
	rows = append(rows,
		[]string{"-- fp16 compute, measured --"},
		[]string{"activation storage", fmt.Sprintf("%d -> %d B/elem", f32.ActBytesPerElem, f16.ActBytesPerElem)},
		[]string{"workspace/rank", fmt.Sprintf("%d B -> %d B", f32.WorkspaceBytes, f16.WorkspaceBytes)},
		[]string{"compute resident/rank", fmt.Sprintf("%d B -> %d B (%.1f%% of fp32)",
			f32.ComputeResidencyBytes, f16.ComputeResidencyBytes, 100*float64(f16.ComputeResidencyBytes)/float64(f32.ComputeResidencyBytes))},
	)
	return Table{
		Title: "Stage memory sweep: per-device model-state GB (Ψ=7.5B) vs DP degree",
		Note: "All four stages of the unified API; stage 0 is flat at (2+2+K)Ψ.\n" +
			fmt.Sprintf("Measured block: live %d-rank stage-2 engine (Ψ=%d), workspace + the\n", residencyRanks, residencyPsi) +
			"parameter copy the kernels read; fp16_compute stores activations and weight\n" +
			"views in 2 bytes with fp32 accumulation (the fp32 master is optimizer state).",
		Header: header,
		Rows:   rows,
	}
}
