// Trillion: the paper's §9 analysis — what it takes to fit a 1T-parameter
// model on today's hardware. Reproduces the two configurations the paper
// names: Pos+g+p across 1024 GPUs with DP only, and Pos+g with 16-way model
// parallelism inside each DGX-2 node plus 64-way DP across nodes.
package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/zero"
)

func main() {
	const psi = 1_000_000_000_000
	const budget = 32.0 // GB per V100

	fmt.Println("Fitting 1T parameters (mixed-precision Adam: 16 bytes/param = 16 TB of model states)")

	fmt.Println("\nOption A: ZeRO-DP stage 3 (Pos+g+p), DP only:")
	for _, nd := range []int{256, 512, 1024} {
		gb := zero.ModelStateGB(psi, zero.StageFull, nd)
		fits := "OOM"
		if gb <= budget {
			fits = "fits"
		}
		fmt.Printf("  Nd=%4d: %8.1f GB/GPU  -> %s\n", nd, gb, fits)
	}
	// Stage 3's 3Ψ schedule only pays off if the extra Ψ of parameter
	// gathers hides behind compute — the prefetch stream's job (§7.2.2).
	{
		hw := perfmodel.DGX2()
		shape := perfmodel.GPT2Like(125, 8192, 64) // 100B stand-in at DP scale
		mk := func(prefetch bool) perfmodel.Breakdown {
			return perfmodel.Estimate(hw, perfmodel.Config{
				Shape: shape, MP: 1, DP: 1024, MicroBatch: 8,
				ZeRO: perfmodel.ZeROConfig{Stage: 3, Prefetch: prefetch},
			})
		}
		syncB, preB := mk(false), mk(true)
		fmt.Printf("  stage-3 gather time per step: %.0f ms total; exposed %.0f ms sync vs %.0f ms prefetched\n",
			syncB.GatherSec*1e3, syncB.ExposedGatherSec*1e3, preB.ExposedGatherSec*1e3)
	}

	fmt.Println("\nOption B: full ZeRO (Pos+g+p) + 16-way MP in the node, 64-way DP (Table 2, §9):")
	perGPU := zero.ModelStateGB(psi, zero.StageFull, 64) / 16
	fmt.Printf("  (16Ψ/64) / 16 = %.1f GB/GPU on 1024 GPUs -> fits, with a practical batch size\n", perGPU)

	// Residual states (§6): at 1T scale the activations rival the model
	// states, and the fp16 compute path halves them — 2-byte storage with
	// fp32 accumulation. Run both precisions live at miniature scale and
	// read the activation width and per-rank compute residency off the
	// real trainer.
	fmt.Println("\nMixed precision (§6): fp16 activations + weight views, fp32 accumulation (measured):")
	{
		f32 := experiments.MeasureComputeResidency(false)
		f16 := experiments.MeasureComputeResidency(true)
		fmt.Println("  precision       act B/elem   workspace/rank   compute resident/rank")
		fmt.Printf("  fp32            %10d   %12d B   %15d B\n",
			f32.ActBytesPerElem, f32.WorkspaceBytes, f32.ResidentBytes)
		fmt.Printf("  fp16_compute    %10d   %12d B   %15d B  (%.1f%%)\n",
			f16.ActBytesPerElem, f16.WorkspaceBytes, f16.ResidentBytes,
			100*float64(f16.ResidentBytes)/float64(f32.ResidentBytes))
		fmt.Println("  at 1T scale the same 4 -> 2 B/elem cut halves the §6 activation ballast")
	}

	// Why the DP collectives survive the node uplink at all: route them
	// hierarchically and only 1/nodeSize of the volume crosses nodes. Run
	// the real two-level all-reduce at miniature scale (8 "GPUs", 2 nodes
	// of 4) and read the measured split off the wire, then scale the same
	// closed form to the paper's 16-GPU DGX-2 nodes.
	fmt.Println("\nTopology: the two-level DP all-reduce, measured on the simulator:")
	{
		const miniPsi = 1 << 16
		const nodeSize, nodes = 4, 2
		w := comm.NewWorld(nodeSize * nodes)
		w.Run(func(c *comm.Comm) {
			if err := c.AllReduceHierarchical(comm.F16Buf(make([]float32, miniPsi)), nodeSize); err != nil {
				panic(err)
			}
		})
		st := w.Stats(0)
		intra, inter := st.PerGroup["hier-intra"], st.PerGroup["hier-inter"]
		fmt.Printf("  %d ranks as %d nodes x %d: per-rank %d B stay in-node, %d B cross (%.0fx cut)\n",
			nodeSize*nodes, nodes, nodeSize, intra.Bytes, inter.Bytes,
			float64(intra.Bytes+inter.Bytes)/float64(inter.Bytes))
		hw := perfmodel.DGX2()
		measuredBW := hw.SplitDPBandwidth(float64(intra.Bytes), float64(inter.Bytes))
		fmt.Printf("  same split on DGX-2 bandwidths -> %.0f GB/s effective per GPU;\n", measuredBW/1e9)
		fmt.Printf("  at the paper's scale (16-GPU nodes, 25 nodes): %.0f GB/s vs %.1f GB/s flat uplink share\n",
			hw.HierarchicalDPBandwidth(16, 25)/1e9, hw.InterNodeBWPerGPU/1e9)
	}

	// Large global batches on fixed memory (§5.2): the batch a 1T run needs
	// for efficiency far exceeds what fits per device, so the engine
	// accumulates micro-batches — and because gradients are reduce-scattered
	// as each micro-batch's buckets complete, the state carried across
	// micro-batches is the Ψ/N partition, never Ψ. Run it live at miniature
	// scale and read the residency and wire volume off the simulator.
	fmt.Println("\nGradient accumulation: k× the global batch on a fixed Ψ/N accumulator:")
	{
		cfg := engine.DefaultConfig()
		cfg.Model = model.Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 31, Seq: 8}
		cfg.Ranks = 4
		cfg.Stage = "2"
		cfg.Optimizer.LR = 1e-3
		psiMini := int64(cfg.Model.ParamCount())
		for _, k := range []int{1, 4} {
			cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps = 4*k, 4, k
			ids, targets := model.SyntheticBatch(3, cfg.GlobalBatch, cfg.Model.Seq, cfg.Model.Vocab)
			var accumElems int
			w, err := engine.Run(cfg, func(e *engine.Engine) {
				e.TrainBatch(ids, targets)
				if e.Rank() == 0 {
					accumElems = e.GradAccumElems()
				}
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("  k=%d: global batch %2d, accumulator %d elems (Ψ/N of %d), %6d elems on the wire\n",
				k, cfg.GlobalBatch, accumElems, psiMini, w.TotalElemsSent())
		}
		fmt.Println("  4x the batch, same gradient residency; wire grows (k+1)/2, not 2k/2 as in DDP")
	}

	fmt.Println("\nCompute-power gap (§9): even fitted, 1T is compute-bound.")
	shape := perfmodel.Shape{Layers: 1000, Hidden: 9216, Heads: 72,
		Vocab: perfmodel.DefaultVocab, Seq: perfmodel.DefaultSeq}
	fmt.Printf("  representative 1T shape: %d layers x hidden %d = %.2fT params\n",
		shape.Layers, shape.Hidden, float64(shape.Params())/1e12)
	hw := perfmodel.DGX2()
	cfg := perfmodel.Config{Shape: shape, MP: 16, DP: 64, MicroBatch: 8,
		ZeRO: perfmodel.ZeROConfig{Stage: 2, Pa: true}}
	b := perfmodel.Estimate(hw, cfg)
	agg := b.TFlopsPerGPU * 1024 / 1e3
	// Tokens needed scale with parameters; assume 300B tokens (GPT-3-class).
	const tokens = 300e9
	stepsNeeded := tokens / float64(cfg.TotalBatch()*shape.Seq)
	days := stepsNeeded * b.StepSec / 86400
	fmt.Printf("  modeled: %.1f TFlops/GPU, %.1f PFlops aggregate on 1024 V100s\n",
		b.TFlopsPerGPU, agg)
	fmt.Printf("  300B tokens -> ~%.0f days: ZeRO makes 1T *fit*; an exaflop system makes it *fast*\n",
		days)
}
