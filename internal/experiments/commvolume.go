package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

// CommVolume reproduces the §7-§8 communication analysis with *measured*
// traffic: it trains a small real model under baseline DDP and ZeRO stages
// 1-3 on in-process worlds, counts every element each rank sends through
// the collectives, and compares against the closed forms (2Ψ for DP and
// Pos/Pos+g, 3Ψ for Pos+g+p). The Pa row measures a Megatron-sharded model
// the same way: Pa's checkpoint all-gathers against the checkpointed MP
// all-reduces (§8: one M·h all-gather per block, ≤ 10% of that traffic).
func CommVolume() Table {
	cfg := model.Config{Layers: 3, Hidden: 32, Heads: 4, Vocab: 31, Seq: 8}
	psi := int64(cfg.ParamCount())
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)

	var rows [][]string
	addRow := func(name string, measured int64, psiMult float64) {
		// Per-rank measured average; theory uses the (N-1)/N ring factor.
		perRank := float64(measured) / float64(n)
		theory := psiMult * float64(psi) * float64(n-1) / float64(n)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.0f", perRank),
			fmt.Sprintf("%.0f", theory),
			fmtF(perRank/float64(psi), 2) + "Ψ",
			fmtF(psiMult*float64(n-1)/float64(n), 2) + "Ψ",
		})
	}

	// Baseline DP (stage 0), then the ZeRO stages.
	for _, st := range zero.AllStages {
		name, mult := "ZeRO "+st.String(), 2.0
		switch st {
		case zero.StageDDP:
			name = "DP all-reduce"
		case zero.StageFull:
			mult = 3.0
		}
		w, err := engine.Run(engine.Config{
			Model: cfg, Ranks: n, Stage: engine.StageSpec(fmt.Sprint(int(st))),
			Optimizer: engine.OptimizerConfig{LR: 1e-3}, Seed: 1,
			GlobalBatch: batch, MicroBatch: batch,
		}, func(e *engine.Engine) { e.TrainBatch(ids, targets) })
		if err != nil {
			panic(err)
		}
		addRow(name, w.TotalElemsSent(), mult)
	}

	// Pa vs Megatron MP traffic: one checkpointed step of a 2-layer model
	// sharded over an n-rank MP group, without and with Pa's partitioned
	// checkpoint store.
	mpCfg := cfg
	mpCfg.Layers = 2
	mpTraffic := func(pa bool) int64 {
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			m := model.NewSharded(mpCfg, 1, c)
			m.Checkpoint = true
			if pa {
				sched := comm.NewScheduler(c)
				defer sched.Close()
				m.Store = zero.NewPartitionedStore(sched.Stream(zero.StreamCheckpoint), false)
			}
			m.Loss(ids, targets, batch)
			m.Backward()
		})
		return w.TotalElemsSent()
	}
	ckpt := mpTraffic(false)
	paExtra := mpTraffic(true) - ckpt
	blockIn := mpCfg.Layers * batch * mpCfg.Seq * mpCfg.Hidden // one M·h checkpoint per block
	rows = append(rows, []string{
		"Pa vs MP traffic",
		fmt.Sprintf("%.0f", float64(paExtra)/n),
		fmt.Sprintf("%.0f", float64(blockIn)*(n-1)/n),
		fmtF(float64(paExtra)/float64(ckpt)*100, 1) + "%", "≤10% (§8)",
	})

	return Table{
		Title: "§7-§8 communication volume: measured on the wire vs analysis",
		Note: fmt.Sprintf("Real training step, N=%d ranks, Ψ=%d parameters; elements sent per rank.",
			n, psi),
		Header: []string{"System", "Measured/rank", "Theory/rank", "Measured (Ψ)", "Theory (Ψ)"},
		Rows:   rows,
	}
}
