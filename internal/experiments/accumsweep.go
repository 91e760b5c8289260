package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

// AccumSweep measures §5.2's gradient-accumulation identities on the real
// engines: per optimizer step with k micro-batches,
//
//	stage 0 (DDP):     2k(N-1)Ψ  total elements (this trainer all-reduces every micro-batch)
//	stages 1-2:        (k+1)(N-1)Ψ  (k micro reduce-scatters + ONE parameter gather pass, in the first Forward)
//	stage 3:           3k(N-1)Ψ  (two parameter gather passes per micro-batch)
//
// while the gradient state carried across micro-batches stays at Ψ/N
// elements for every k at the partitioned stages. The stage-0 row is this
// trainer's DDP, not the cheapest one: a DDP that accumulates locally and
// all-reduces once per step sends 2(N-1)Ψ whatever k is. Against that
// baseline, stage 2's (k+1)(N-1)Ψ is the wire price of holding Ψ/N
// gradients instead of Ψ, and it grows with k.
func AccumSweep() Table {
	sc := DefaultStageSweep()
	cfg := sc.Base.Model
	psi := int64(cfg.ParamCount())
	ranks := sc.Base.Ranks
	batch := 4 * ranks
	const boundaries = 2
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)

	var rows [][]string
	for _, st := range []zero.Stage{zero.StageDDP, zero.StageOSGrad, zero.StageFull} {
		for _, k := range []int{1, 2, 4} {
			rowCfg := sc.Base
			rowCfg.Stage = engine.StageSpec(fmt.Sprint(int(st)))
			rowCfg.BucketElems = sc.Base.BucketElems
			rowCfg.GlobalBatch = batch
			rowCfg.GradAccumSteps = k
			rowCfg.MicroBatch = 0 // derive batch/k
			rowCfg.Overlap = true

			var accumElems int
			w, err := engine.Run(rowCfg, func(e *engine.Engine) {
				for b := 0; b < boundaries; b++ {
					e.TrainBatch(ids, targets)
				}
				if e.Rank() == 0 {
					accumElems = e.GradAccumElems()
				}
			})
			if err != nil {
				panic(fmt.Sprintf("accumsweep: %v", err))
			}

			var mult int64
			switch {
			case st == zero.StageDDP:
				mult = 2 * int64(k)
			case st == zero.StageFull:
				mult = 3 * int64(k)
			default:
				mult = int64(k) + 1
			}
			predicted := mult * int64(ranks-1) * psi
			measured := w.TotalElemsSent() / boundaries
			ddpVolume := 2 * int64(k) * int64(ranks-1) * psi
			rows = append(rows, []string{
				st.String(), fmt.Sprint(k), fmt.Sprint(batch / k),
				fmt.Sprint(measured), fmt.Sprint(predicted),
				fmtF(float64(measured)/float64(ddpVolume), 2) + "x",
				fmt.Sprint(accumElems),
			})
		}
	}
	return Table{
		Title: "Accumulation sweep: wire volume and accumulator residency vs GradAccumSteps",
		Note: fmt.Sprintf("Ψ=%d params, N=%d ranks, global batch %d; measured total elements per\n"+
			"optimizer step (all ranks) against the closed forms 2k/(k+1)/3k·(N-1)Ψ; the\n"+
			"accumulator column is the per-rank gradient state carried across micro-batches\n"+
			"(Ψ/N = %d at the partitioned stages, for every k).",
			psi, ranks, batch, psi/int64(ranks)),
		Header: []string{"Stage", "k", "Micro-batch", "Elems/step (measured)", "Predicted", "vs DDP", "Accum elems/rank"},
		Rows:   rows,
	}
}
