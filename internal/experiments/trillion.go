package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/zero"
)

// Trillion is §9's question — what it takes to train a 1T-parameter model
// on today's hardware — reduced to the rows no other table prints: the
// stage-3 fit across DP degrees, the stage-3 gather schedule that makes
// 3Ψ of traffic affordable, and the compute gap that remains once 1T fits.
func Trillion() Table {
	const (
		psi    = 1_000_000_000_000
		budget = 32.0 // GB per V100
	)
	var rows [][]string
	for _, nd := range []int{256, 512, 1024} {
		gb := perfmodel.ModelStateGB(psi, int(zero.StageFull), nd)
		fits := "OOM"
		if gb <= budget {
			fits = "fits"
		}
		rows = append(rows, []string{fmt.Sprintf("1T Pos+g+p, Nd=%d", nd), fmtF(gb, 1) + " GB/GPU", fits})
	}

	// Stage 3's 3Ψ schedule only pays off if the extra Ψ of parameter
	// gathers hides behind compute — the prefetch stream's job (§7.2.2).
	gather := perfmodel.Config{
		Shape: perfmodel.GPT2Like(125, 8192, 64), // 100B stand-in at DP scale
		MP:    1, DP: 1024, MicroBatch: 8,
		ZeRO: perfmodel.ZeROConfig{Stage: int(zero.StageFull)},
	}
	sync := perfmodel.Estimate(hw, gather)
	gather.ZeRO.Prefetch = true
	pre := perfmodel.Estimate(hw, gather)
	rows = append(rows,
		[]string{"stage-3 gathers (100B, Nd=1024)", fmtF(sync.GatherSec*1e3, 0) + " ms/step", "the third Ψ of Pos+g+p"},
		[]string{"  exposed, synchronous", fmtF(sync.ExposedGatherSec*1e3, 0) + " ms/step", "all of it on the critical path"},
		[]string{"  exposed, prefetched", fmtF(pre.ExposedGatherSec*1e3, 0) + " ms/step", "hidden under forward/backward"},
	)

	// Even fitted, 1T is compute-bound: tokens needed scale with the
	// parameters; assume 300B tokens (GPT-3-class).
	const tokens = 300e9
	cfg := perfmodel.Config{
		Shape: perfmodel.GPT2Like(1000, 9216, 72),
		MP:    16, DP: 64, MicroBatch: 8,
		ZeRO: perfmodel.ZeROConfig{Stage: int(zero.StageOSGrad), Pa: true},
	}
	b := perfmodel.Estimate(hw, cfg)
	days := tokens / float64(cfg.TotalBatch()*cfg.Shape.Seq) * b.StepSec / 86400
	rows = append(rows,
		[]string{"1T shape: 1000 layers x h 9216", fmtF(float64(cfg.Shape.Params())/1e12, 2) + "T params",
			"MP 16 x DP 64, Pos+g + Pa, batch 8"},
		[]string{"  modeled throughput", fmtF(b.TFlopsPerGPU, 1) + " TF/GPU",
			fmtF(b.TFlopsPerGPU*float64(cfg.GPUs())/1e3, 1) + " PFlops on 1024 V100s"},
		[]string{"  300B tokens", "~" + fmtF(days, 0) + " days", "ZeRO makes 1T fit; an exaflop system makes it fast"},
	)
	return Table{
		Title: "§9: a trillion parameters on 32 GB V100s",
		Note: "The rest of §9 is printed elsewhere: Table 1's 1T column and Table 2's MP=16\n" +
			"row (16-way MP x 64-way DP), stagememory's fp16 block, the ablations'\n" +
			"hierarchical all-reduce and accumsweep's Ψ/N accumulator.",
		Header: []string{"Quantity", "Value", "Reading"},
		Rows:   rows,
	}
}
