// Package zero implements the paper's contribution: the Zero Redundancy
// Optimizer.
//
//   - The memory planner (this file): closed-form per-device model-state
//     consumption for each ZeRO-DP stage — the equations behind Figure 1,
//     Table 1 and Table 2.
//   - The ZeRO-DP trainer (trainer.go): working data-parallel training
//     engines for stage 1 (Pos), stage 2 (Pos+g) and stage 3 (Pos+g+p)
//     over the real collectives in internal/comm, numerically equivalent
//     to baseline training.
//   - ZeRO-R (zeror.go): partitioned activation checkpointing (Pa), CPU
//     offload (Pa+cpu), and constant-size communication buffers (CB);
//     memory defragmentation (MD) lives in internal/device.
//
// Surface: New builds a Trainer from Options (Forward, Backward, Update,
// Step, Save, Load, CaptureShard and the accounting readers); Snapshot with
// Encode, DecodeSnapshot and AssembleSnapshot is the ZELC checkpoint; Stage
// and ParseStage name the stages; ModelStateBytes, MaxTheoreticalParams,
// MaxMeasuredParams and ResidualBytes are the memory planner;
// NewPartitionedStore is Pa and Pa+cpu. Imported by engine, elastic, serve,
// experiments, cmd/zerobench, cmd/zerotrain and the examples.
package zero

import (
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/tensor"
)

// Stage selects how much of the model state ZeRO-DP partitions.
type Stage int

const (
	// StageDDP is baseline data parallelism run through the unified code
	// path: everything replicated, gradients averaged collectively.
	StageDDP Stage = iota
	// StageOS partitions optimizer states (Pos): 4Ψ + KΨ/Nd.
	StageOS
	// StageOSGrad adds gradient partitioning (Pos+g): 2Ψ + (2+K)Ψ/Nd.
	StageOSGrad
	// StageFull adds parameter partitioning (Pos+g+p): (2+2+K)Ψ/Nd.
	StageFull
)

// String returns the paper's name for the stage.
func (s Stage) String() string {
	switch s {
	case StageDDP:
		return "DP"
	case StageOS:
		return "Pos"
	case StageOSGrad:
		return "Pos+g"
	case StageFull:
		return "Pos+g+p"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Bytes-per-parameter constants of mixed-precision Adam training (§3.1):
// 2Ψ fp16 parameters, 2Ψ fp16 gradients, KΨ optimizer state (fp32 master +
// momentum + variance, K = 12).
const (
	paramBytes = tensor.BytesPerHalf
	gradBytes  = tensor.BytesPerHalf
	optimK     = optimizer.AdamK
)

// GB is the paper's gigabyte (10^9 bytes; Table 1's "7.5B model at DP=1 is
// 120 GB" requires the decimal unit: 16 × 7.5e9 = 1.2e11).
const GB = 1e9

// ModelStateBytes returns the per-device model-state memory in bytes for a
// Ψ-parameter model trained with mixed-precision Adam at the given ZeRO-DP
// stage and DP degree (Figure 1's formulas).
func ModelStateBytes(psi int64, stage Stage, nd int) float64 {
	if psi < 0 || nd < 1 {
		panic("zero: invalid ModelStateBytes arguments")
	}
	p := float64(psi)
	n := float64(nd)
	switch stage {
	case StageDDP:
		return (paramBytes + gradBytes + optimK) * p
	case StageOS:
		return (paramBytes+gradBytes)*p + optimK*p/n
	case StageOSGrad:
		return paramBytes*p + (gradBytes+optimK)*p/n
	case StageFull:
		return (paramBytes + gradBytes + optimK) * p / n
	default:
		panic(fmt.Sprintf("zero: unknown stage %d", stage))
	}
}

// ModelStateGB is ModelStateBytes in the paper's decimal gigabytes.
func ModelStateGB(psi int64, stage Stage, nd int) float64 {
	return ModelStateBytes(psi, stage, nd) / GB
}

// memoryReduction returns the memory reduction factor versus baseline DP
// (4x for Pos at large Nd, 8x for Pos+g, Nd for Pos+g+p).
func memoryReduction(stage Stage, nd int) float64 {
	const psi = 1 << 30
	return ModelStateBytes(psi, StageDDP, nd) / ModelStateBytes(psi, stage, nd)
}

// MaxTheoreticalParams returns the largest Ψ whose model states fit in
// budget bytes per device at the given stage, DP degree and MP degree —
// the left half of Table 2 (budget 32 GB, Nd = 64, MP ∈ {1..16}).
func MaxTheoreticalParams(budget float64, stage Stage, nd, mp int) int64 {
	if mp < 1 {
		panic("zero: MP degree must be positive")
	}
	perParam := ModelStateBytes(1e9, stage, nd) / 1e9 // bytes per parameter
	return int64(float64(mp) * budget / perParam)
}

// ResidualConfig controls the residual-memory model used for "measured"
// model sizes (the right half of Table 2 and Figure 6): activations,
// temporary buffers, and allocator fragmentation (§3.2).
type ResidualConfig struct {
	Batch int  // per-GPU batch size
	Seq   int  // sequence length
	MP    int  // model-parallel degree (activations divide by it)
	Pa    bool // partitioned activation checkpoints (further /MP)
	PaCPU bool // checkpoints offloaded to host: device cost ≈ 0
	CB    bool // constant-size fused buffers instead of 4Ψ fp32
	MD    bool // defragmentation: less fragmentation slack
}

// Residual buffer constants: a fused fp32 buffer is 4 bytes/param without
// CB (§3.2: "for a model with 1.5B parameters, a flattened fp32 buffer
// would require 6GB"); with CB it is a fixed high-performance size. The
// fragmentation slack fractions reflect §3.2 ("30% of memory still
// available" in extreme cases) versus MD.
const (
	constantBufferBytes = 256e6
	fragSlackBaseline   = 0.15
	fragSlackMD         = 0.03
	workspaceBytes      = 800e6 // cuDNN-style workspaces, kernels, CUDA context
)

// ResidualBytes estimates the per-device residual-state memory for a model
// shape under the given configuration.
func ResidualBytes(shape ShapeInfo, rc ResidualConfig) float64 {
	mp := rc.MP
	if mp < 1 {
		mp = 1
	}
	// Activation checkpoints: one per layer, B×s×h fp16 each, divided
	// across MP (Megatron splits activations within a block but
	// checkpoints the replicated block input — Pa removes that
	// replication).
	ckpt := 2 * float64(rc.Batch) * float64(rc.Seq) * float64(shape.Hidden) * float64(shape.Layers)
	if rc.Pa {
		ckpt /= float64(mp)
	}
	if rc.PaCPU {
		ckpt = 0
	}
	// Working activations of the deepest live block during recompute.
	working := 12 * float64(rc.Batch) * float64(rc.Seq) * float64(shape.Hidden) * 2 / float64(mp)
	// Temporary fused buffers.
	buffers := 4 * float64(shape.Params) / float64(mp)
	if rc.CB {
		buffers = constantBufferBytes
	}
	return ckpt + working + buffers + workspaceBytes
}

// ShapeInfo carries the architecture facts the residual model needs.
type ShapeInfo struct {
	Params int64
	Layers int
	Hidden int
}

// ShapeForParams picks a representative (layers, hidden) pair for a target
// parameter count, following the hidden-size ladder of Table 4.
func ShapeForParams(psi int64) ShapeInfo {
	var hidden int
	switch {
	case psi < 2e9:
		hidden = 1920
	case psi < 4e9:
		hidden = 2304
	case psi < 9e9:
		hidden = 3072
	case psi < 15e9:
		hidden = 4096
	case psi < 50e9:
		hidden = 6144
	default:
		hidden = 8192
	}
	perLayer := int64(12*hidden*hidden + 13*hidden)
	emb := int64(50257+1024) * int64(hidden)
	layers := int((psi - emb) / perLayer)
	if layers < 1 {
		layers = 1
	}
	return ShapeInfo{Params: emb + int64(layers)*perLayer, Layers: layers, Hidden: hidden}
}

// MaxMeasuredParams returns the largest Ψ that fits in budget bytes per
// device once residual states and fragmentation slack are charged — the
// right half of Table 2 and the Figure 6 bars. frag slack reserves a
// fraction of the budget (lost to fragmentation without MD).
func MaxMeasuredParams(budget float64, stage Stage, nd int, rc ResidualConfig) int64 {
	slack := fragSlackBaseline
	if rc.MD {
		slack = fragSlackMD
	}
	usable := budget * (1 - slack)
	mp := rc.MP
	if mp < 1 {
		mp = 1
	}
	fits := func(psi int64) bool {
		shape := ShapeForParams(psi)
		states := ModelStateBytes(shape.Params, stage, nd) / float64(mp)
		return states+ResidualBytes(shape, rc) <= usable
	}
	// Binary search over Ψ.
	lo, hi := int64(1e8), int64(4e12)
	if !fits(lo) {
		return 0
	}
	for hi-lo > 1e7 {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
