package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
)

// hw is the paper's testbed profile used by all throughput experiments.
var hw = perfmodel.DGX2()

func specToConfig(r RunSpec, z perfmodel.ZeROConfig) perfmodel.Config {
	return perfmodel.Config{
		Shape:      perfmodel.GPT2Like(r.Layers, r.Hidden, r.Heads),
		MP:         r.MP,
		DP:         r.DP(),
		MicroBatch: r.Batch,
		ZeRO:       z,
	}
}

// Fig2 reproduces Figure 2: per-GPU throughput of ZeRO-100B (Pos+g + Pa)
// versus the Megatron-LM baseline across model sizes, and the speedup.
func Fig2() Table {
	var rows [][]string
	for i, zr := range Fig2ZeRO {
		br := Fig2Baseline[i]
		zb := perfmodel.Estimate(hw, specToConfig(zr, perfmodel.ZeROConfig{Stage: 2, Pa: zr.MP > 1}))
		bb := perfmodel.Estimate(hw, specToConfig(br, perfmodel.ZeROConfig{Stage: 0}))
		rows = append(rows, []string{
			zr.Label,
			fmtF(zb.TFlopsPerGPU, 1),
			fmtF(bb.TFlopsPerGPU, 1),
			fmtF(zb.TFlopsPerGPU/bb.TFlopsPerGPU, 1) + "x",
			fmt.Sprintf("MP %d vs %d", zr.MP, br.MP),
		})
	}
	return Table{
		Title: "Figure 2: ZeRO vs Megatron baseline throughput per GPU (TFlops)",
		Note: "ZeRO keeps MP within a node; the baseline must span nodes beyond 40B\n" +
			"(NVSwitch -> InfiniBand) and collapses.",
		Header: []string{"Model", "ZeRO TF/GPU", "Baseline TF/GPU", "Speedup", "Parallelism"},
		Rows:   rows,
	}
}

// Fig3 reproduces Figure 3: superlinear scalability of the 60B model from
// 64 to 400 GPUs. Aggregate throughput more than doubles when GPUs double
// because the per-GPU memory freed by Pos+g affords bigger batches.
func Fig3() Table {
	var rows [][]string
	var basePerGPU float64
	for i, r := range Fig3Scaling {
		b := perfmodel.Estimate(hw, specToConfig(r, perfmodel.ZeROConfig{Stage: 2, Pa: true}))
		agg := b.TFlopsPerGPU * float64(r.GPUs) / 1e3
		if i == 0 {
			basePerGPU = b.TFlopsPerGPU
		}
		perfect := basePerGPU * float64(r.GPUs) / 1e3
		rows = append(rows, []string{
			fmt.Sprint(r.GPUs),
			fmt.Sprint(r.Batch),
			fmtF(b.TFlopsPerGPU, 1),
			fmtF(agg, 1),
			fmtF(perfect, 1),
			fmtF(agg/perfect, 2) + "x",
		})
	}
	return Table{
		Title: "Figure 3: superlinear scalability, 60B model (Pos+g)",
		Note:  "'vs perfect' > 1.00x means superlinear: per-GPU throughput grows with scale.",
		Header: []string{"GPUs", "Batch/replica", "TF/GPU", "Aggregate PFlops",
			"Perfect-scaling PFlops", "vs perfect"},
		Rows: rows,
	}
}

// Fig4 reproduces Figure 4: the democratization result — ZeRO-DP (Pos+g,
// no model parallelism, no model refactoring) trains up to 13B parameters
// on 128 GPUs at >40 TFlops/GPU, while baseline DP runs out of memory
// beyond ~1.4B.
func Fig4() Table {
	const budget = 32 * perfmodel.GB
	var rows [][]string
	for _, r := range Fig4Models {
		cfg := specToConfig(r, perfmodel.ZeROConfig{Stage: 2, CB: true, MD: true})
		status := "OK"
		tf := "-"
		if perfmodel.DeviceBytes(cfg) <= budget {
			tf = fmtF(perfmodel.Estimate(hw, cfg).TFlopsPerGPU, 1)
		} else {
			status = "OOM"
		}
		// Baseline DP replicates 16Ψ: OOM for everything past ~1.4B.
		base := cfg
		base.ZeRO.Stage = 0
		baseStatus := "OOM"
		baseTF := "-"
		if perfmodel.DeviceBytes(base) <= budget {
			baseStatus = "OK"
			baseTF = fmtF(perfmodel.Estimate(hw, base).TFlopsPerGPU, 1)
		}
		rows = append(rows, []string{
			r.Label, fmtB(cfg.Shape.Params()), tf, status, baseTF, baseStatus,
		})
	}
	for _, r := range Fig4Baseline {
		shape := perfmodel.GPT2Like(r.Layers, r.Hidden, r.Heads)
		bb := perfmodel.Estimate(hw, specToConfig(r, perfmodel.ZeROConfig{Stage: 0}))
		rows = append(rows, []string{
			r.Label + " (baseline cfg)", fmtB(shape.Params()), "-", "-",
			fmtF(bb.TFlopsPerGPU, 1), "OK",
		})
	}
	return Table{
		Title: "Figure 4: max model throughput with ZeRO-DP only (no MP), 128 GPUs",
		Note:  "Baseline DP (replicated 16Ψ) OOMs beyond ~1.4B; ZeRO Pos+g reaches 13B.",
		Header: []string{"Model", "Params", "ZeRO TF/GPU", "ZeRO fits",
			"Baseline TF/GPU", "Baseline fits"},
		Rows: rows,
	}
}
