package perfmodel

import "fmt"

// ZeROConfig selects which ZeRO optimizations are active for a run, mapping
// onto the paper's Table 3 configurations.
type ZeROConfig struct {
	Stage int  // 0 = baseline replicated DP, 1 = Pos, 2 = Pos+g, 3 = Pos+g+p
	Pa    bool // partitioned activation checkpointing (needs MP > 1)
	PaCPU bool // offload partitioned checkpoints to CPU
	// SyncComm disables the bucketed communication/computation overlap:
	// every DP collective runs at a step boundary and is fully exposed —
	// the pre-overlap synchronous schedule, kept as the comparison point
	// for the grad-stream bucket schedule.
	SyncComm bool
	// Prefetch pipelines stage 3's parameter all-gathers on the prefetch
	// stream under forward/backward compute (§7.2.2's "spread across the
	// entire forward propagation"). Without it the gather volume — the
	// third Ψ that distinguishes Pos+g+p — is fully exposed, which is the
	// synchronous gather schedule the stream API replaced. No effect at
	// stages 0-2 (no parameter gathers) or under SyncComm.
	Prefetch bool
	// PrefetchDepth is the pipelining window in layer groups (0/1 = the
	// classic one-group-ahead schedule). Deeper windows keep more gathers
	// in flight, hiding more of the gather stream behind compute with
	// geometrically diminishing returns — the modeled window approaches
	// the gradient buckets' dpOverlapWindow ceiling as depth grows.
	PrefetchDepth int
	// GatherWindow, when > 0, overrides the modeled prefetch overlap
	// window with a measured compute fraction in (0,1] — read it off a
	// depth sweep of BenchmarkPrefetchStep/BenchmarkAccumStep instead of
	// assuming the closed form.
	GatherWindow float64
}

// PrefetchWindow returns the compute fraction available to hide stage-3
// parameter gathers for this config: the measured GatherWindow when set,
// otherwise the depth model — gatherOverlapWindow at depth 1, approaching
// dpOverlapWindow as the window deepens (each extra group in flight halves
// the remaining exposed fraction).
func (z ZeROConfig) PrefetchWindow() float64 {
	if z.GatherWindow > 0 {
		return z.GatherWindow
	}
	d := z.PrefetchDepth
	if d <= 1 {
		return gatherOverlapWindow
	}
	scale := 1.0
	for i := 1; i < d && i < 16; i++ {
		scale /= 2
	}
	return dpOverlapWindow - (dpOverlapWindow-gatherOverlapWindow)*scale
}

// Config is one training run: a model shape and its parallelization.
type Config struct {
	Shape      Shape
	MP         int // model-parallel degree (Megatron-style, within the replica)
	DP         int // data-parallel degree
	MicroBatch int // per-replica batch size ("Batch size" column of Tables 5-10)
	ZeRO       ZeROConfig
}

// GPUs returns the total device count of the run.
func (c Config) GPUs() int { return c.MP * c.DP }

// TotalBatch returns the global batch size.
func (c Config) TotalBatch() int { return c.DP * c.MicroBatch }

// Breakdown is the estimated per-step time decomposition, in seconds, plus
// the derived throughput.
type Breakdown struct {
	ComputeSec   float64 // GEMM + elementwise work at modeled efficiency
	MPCommSec    float64 // Megatron all-reduces (+ Pa all-gathers), on the critical path
	DPCommSec    float64 // total gradient/parameter collective time (before overlap)
	GatherSec    float64 // stage-3 parameter all-gather share of DPCommSec (the third Ψ)
	ExposedDPSec float64 // DP communication not hidden behind compute (incl. exposed gathers)
	// ExposedGatherSec is the parameter-gather time left on the critical
	// path: all of GatherSec without Prefetch (synchronous gathers), the
	// post-overlap remainder with it. Always ≤ ExposedDPSec.
	ExposedGatherSec float64
	OffloadSec       float64 // exposed Pa+cpu PCIe time
	StepSec          float64 // ComputeSec + MPCommSec + ExposedDPSec + OffloadSec
	FlopsPerGPU      float64
	TFlopsPerGPU     float64
}

// Overlap windows: fraction of compute time available to hide DP collectives
// (gradient buckets overlap with backward, stage-3 all-gathers with
// forward/backward) and Pa+cpu transfers (hidden behind the large arithmetic
// intensity per §4.2.1(b), but not fully at small batch).
const (
	dpOverlapWindow = 0.5
	// gatherOverlapWindow is the compute fraction available to hide the
	// stage-3 parameter gathers when Prefetch pipelines them: smaller than
	// the gradient window because the forward gathers have only forward
	// compute to hide under and the first layer group is always exposed.
	gatherOverlapWindow  = 0.3
	offloadOverlapWindow = 0.25
	// paCPUComputeDrag models host-DMA contention and synchronization
	// overhead of CPU offload as a fractional compute slowdown. The paper
	// observes C5 (Pa+cpu) losing throughput versus C4 even when the PCIe
	// bytes themselves are hidden by arithmetic intensity (Figure 8, 60B).
	paCPUComputeDrag = 0.10
)

// fp16Bytes is the wire width of gradients, parameters and activations.
const fp16Bytes = 2

// Estimate models one training step of cfg on hw.
func Estimate(hw Hardware, cfg Config) Breakdown {
	if cfg.MP < 1 || cfg.DP < 1 || cfg.MicroBatch < 1 {
		panic(fmt.Sprintf("perfmodel: invalid config %+v", cfg))
	}
	var b Breakdown

	// Compute.
	b.FlopsPerGPU = cfg.Shape.FlopsPerStep(cfg.MicroBatch) / float64(cfg.MP)
	eff := hw.Efficiency(cfg.Shape.Hidden, cfg.MP, cfg.MicroBatch, cfg.Shape.Seq)
	b.ComputeSec = b.FlopsPerGPU / (hw.PeakFlopsPerGPU * eff)

	// Megatron MP traffic: 12·B·s·h elements per transformer block (§8),
	// all on the critical path between dependent layers.
	if cfg.MP > 1 {
		perBlockElems := 12 * float64(cfg.MicroBatch) * float64(cfg.Shape.Seq) * float64(cfg.Shape.Hidden)
		mpBytes := perBlockElems * float64(cfg.Shape.Layers) * fp16Bytes
		if cfg.ZeRO.Pa {
			// One extra all-gather per block of the partitioned checkpoint:
			// B·s·h elements, i.e. <10% of the 12·B·s·h baseline (§8).
			mpBytes += float64(cfg.MicroBatch) * float64(cfg.Shape.Seq) * float64(cfg.Shape.Hidden) *
				float64(cfg.Shape.Layers) * fp16Bytes
		}
		b.MPCommSec = mpBytes / hw.MPBandwidth(cfg.MP)
	}

	// DP traffic per §7.2: 2Ψ elements per step of gradient-class volume
	// for every stage (all-reduce, or reduce-scatter + parameter
	// all-gather), plus stage 3's extra Ψ of parameter gathers. Ring
	// collectives move volume·(N-1)/N per rank. Ψ here is the per-MP-slice
	// share. The two shares ride different ordering domains (grad vs
	// prefetch stream) and hide behind different compute windows.
	if cfg.DP > 1 {
		psiShard := float64(cfg.Shape.Params()) / float64(cfg.MP)
		ringFrac := float64(cfg.DP-1) / float64(cfg.DP)
		bw := hw.DPBandwidth(cfg.MP, cfg.DP)
		gradSec := 2 * psiShard * ringFrac * fp16Bytes / bw
		if cfg.ZeRO.Stage == 3 {
			b.GatherSec = psiShard * ringFrac * fp16Bytes / bw
		}
		b.DPCommSec = gradSec + b.GatherSec
		overlap := dpOverlapWindow
		if cfg.ZeRO.SyncComm {
			overlap = 0 // synchronous schedule: every byte is exposed
		}
		exposedGrad := gradSec - overlap*b.ComputeSec
		if exposedGrad < 0 {
			exposedGrad = 0
		}
		b.ExposedGatherSec = b.GatherSec
		if cfg.ZeRO.Prefetch && !cfg.ZeRO.SyncComm {
			b.ExposedGatherSec = b.GatherSec - cfg.ZeRO.PrefetchWindow()*b.ComputeSec
			if b.ExposedGatherSec < 0 {
				b.ExposedGatherSec = 0
			}
		}
		b.ExposedDPSec = exposedGrad + b.ExposedGatherSec
	}

	// Pa+cpu: each checkpoint crosses PCIe twice (out after forward, back
	// before recomputation), "2x added data movement ... compared to Pa"
	// (§8).
	if cfg.ZeRO.PaCPU {
		ckptBytes := float64(cfg.Shape.CheckpointElemsPerSample()) * float64(cfg.MicroBatch) * fp16Bytes
		if cfg.MP > 1 {
			ckptBytes /= float64(cfg.MP) // checkpoints are partitioned before offload
		}
		t := 2 * ckptBytes / hw.PCIeBW
		exposed := t - offloadOverlapWindow*b.ComputeSec
		if exposed < 0 {
			exposed = 0
		}
		b.OffloadSec = exposed + paCPUComputeDrag*b.ComputeSec
	}

	b.StepSec = b.ComputeSec + b.MPCommSec + b.ExposedDPSec + b.OffloadSec
	b.TFlopsPerGPU = b.FlopsPerGPU / b.StepSec / 1e12
	return b
}

// AggregatePetaflops returns the cluster-wide sustained throughput of a run
// in petaflops (the paper's "15 Petaflops" headline for 100B on 400 GPUs).
func AggregatePetaflops(hw Hardware, cfg Config) float64 {
	b := Estimate(hw, cfg)
	return b.TFlopsPerGPU * float64(cfg.GPUs()) / 1e3
}
