package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/zero"
)

// CConfig is one of the paper's Table 3 ZeRO configurations C1-C5.
type CConfig struct {
	Name  string
	Stage zero.Stage
	Pa    bool
	PaCPU bool
}

// Configs lists Table 3: every row includes CB and MD.
var Configs = []CConfig{
	{"C1", zero.StageOS, false, false},
	{"C2", zero.StageOS, true, false},
	{"C3", zero.StageOSGrad, false, false},
	{"C4", zero.StageOSGrad, true, false},
	{"C5", zero.StageOSGrad, true, true},
}

// zeroConfig is the configuration as the analytic model takes it, CB and
// MD included.
func (c CConfig) zeroConfig() perfmodel.ZeROConfig {
	return perfmodel.ZeROConfig{Stage: int(c.Stage), Pa: c.Pa, PaCPU: c.PaCPU, CB: true, MD: true}
}

// Fig6 reproduces Figure 6: the largest trainable model under each
// configuration C1-C5 at fixed batch size and MP = 16 (128 GPUs → Nd = 8).
func Fig6() Table {
	const (
		budget = 32 * perfmodel.GB
		mp     = 16
		nd     = 8
		batch  = 16
	)
	var rows [][]string
	for _, c := range Configs {
		max := perfmodel.MaxMeasuredParams(budget, perfmodel.Config{MP: mp, DP: nd, MicroBatch: batch, ZeRO: c.zeroConfig()})
		rows = append(rows, []string{
			c.Name, c.Stage.String(), flag(c.Pa), flag(c.PaCPU), fmtB(max),
		})
	}
	return Table{
		Title: "Figure 6: max model size under ZeRO configurations C1-C5 (MP=16, batch 16)",
		Note: "Paper: 40B (C1) -> 60B (C2, Pa) -> ... -> 140B (C4, Pos+g) -> 150B (C5, Pa+cpu);\n" +
			"the ordering C1 < C2 <= C3 < C4 < C5 is the reproduced shape.",
		Header: []string{"Config", "ZeRO-DP", "Pa", "Pa+cpu", "Max model"},
		Rows:   rows,
	}
}

// maxBatchFor finds the largest per-replica batch (≤ cap) at which cfg
// fits in the device budget; 0 means even batch 1 OOMs.
func maxBatchFor(cfg perfmodel.Config, budget float64, cap int) int {
	best := 0
	for b := 1; b <= cap; b++ {
		cfg.MicroBatch = b
		if perfmodel.DeviceBytes(cfg) <= budget*(1-0.03) {
			best = b
		}
	}
	return best
}

// Fig8 reproduces Figure 8: best achievable throughput per GPU under
// C1-C5 for the 60B and 170B models on 400 GPUs. Each config runs at the
// largest batch its memory affords; C5 trades some throughput for memory at
// 60B but is the only configuration that runs 170B at a useful batch size.
func Fig8() Table {
	const (
		budget = 32 * perfmodel.GB
		mp     = 16
		nd     = 25 // 400 GPUs / MP 16
	)
	models := []struct {
		label  string
		layers int
		hidden int
		heads  int
	}{
		{"60B", 75, 8192, 32},
		{"170B", 212, 8192, 64},
	}
	var rows [][]string
	for _, m := range models {
		shape := perfmodel.GPT2Like(m.layers, m.hidden, m.heads)
		for _, c := range Configs {
			cfg := perfmodel.Config{Shape: shape, MP: mp, DP: nd, ZeRO: c.zeroConfig()}
			cfg.MicroBatch = maxBatchFor(cfg, budget, 64)
			if cfg.MicroBatch == 0 {
				rows = append(rows, []string{m.label, c.Name, "OOM", "-"})
				continue
			}
			b := perfmodel.Estimate(hw, cfg)
			rows = append(rows, []string{
				m.label, c.Name, fmt.Sprint(cfg.MicroBatch), fmtF(b.TFlopsPerGPU, 1),
			})
		}
	}
	return Table{
		Title: "Figure 8: best throughput per GPU under C1-C5 (400 GPUs)",
		Note: "Each config runs at its max feasible batch. Paper shape: throughput rises\n" +
			"C1->C4 with freed memory; C5 drops at 60B (CPU traffic) but is what makes\n" +
			"170B trainable at a useful batch.",
		Header: []string{"Model", "Config", "Max batch", "TF/GPU"},
		Rows:   rows,
	}
}

func flag(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
