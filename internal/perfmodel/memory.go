package perfmodel

import "fmt"

// adamK is K of §3.1: the bytes per parameter of mixed-precision Adam's
// optimizer state (fp32 master + momentum + variance). Parameters and
// gradients are fp16Bytes each, so baseline DP holds (2+2+K)Ψ.
const adamK = 12

// GB is the paper's gigabyte (10^9 bytes; Table 1's "7.5B model at DP=1 is
// 120 GB" requires the decimal unit: 16 × 7.5e9 = 1.2e11).
const GB = 1e9

// ModelStateBytes returns the per-device model-state memory in bytes for a
// Ψ-parameter model trained with mixed-precision Adam at the given ZeRO-DP
// stage (ZeROConfig.Stage's 0-3) and DP degree — Figure 1's formulas.
func ModelStateBytes(psi int64, stage, nd int) float64 {
	if psi < 0 || nd < 1 {
		panic("perfmodel: invalid ModelStateBytes arguments")
	}
	p := float64(psi)
	n := float64(nd)
	switch stage {
	case 0: // replicated: (2+2+K)Ψ
		return (fp16Bytes + fp16Bytes + adamK) * p
	case 1: // Pos: 2Ψ + 2Ψ + KΨ/Nd
		return (fp16Bytes+fp16Bytes)*p + adamK*p/n
	case 2: // Pos+g: 2Ψ + (2+K)Ψ/Nd
		return fp16Bytes*p + (fp16Bytes+adamK)*p/n
	case 3: // Pos+g+p: (2+2+K)Ψ/Nd
		return (fp16Bytes + fp16Bytes + adamK) * p / n
	default:
		panic(fmt.Sprintf("perfmodel: unknown stage %d", stage))
	}
}

// LiveState is the model state one zero.Trainer rank holds under Adam, by
// kind of buffer, in bytes: the live sums Trainer.ResidentBytes reads, where
// ModelStateBytes is §3.1's closed form. Beyond §3.1 a rank holds its
// gradient windows, the parameter copy (Ψ-long at stages 0-2, a few
// windows at stage 3) at the compute width, and under fp16 a 4-byte
// accumulator where §3.1 counts a 2-byte gradient.
type LiveState struct {
	// Params is the parameter copy the kernels read, 4 bytes an element in
	// fp32 and 2 under fp16: Ψ elements at stages 0-2, and at stage 3 the
	// windows Wp = |emb| + |ln_f| + min(2, L)·|block| elements.
	Params int64
	// Grads is W, the fp32 gradient windows: 4·(|emb| + |ln_f| +
	// 2·max|unit|), where a unit is a third of a block and the largest is
	// [ln1, qkv, proj] (or [ln2, fc1], as long), 4h² + 6h elements.
	Grads int64
	// Domain is what spans the rank's dom-element optimizer domain: the
	// accumulator and Adam's two moments, the fp32 master unless it lies
	// in the fp32 compute copy, and the stage-3 half shard.
	Domain int64
}

// Total is the rank's model state in bytes.
func (l LiveState) Total() int64 { return l.Params + l.Grads + l.Domain }

// LiveModelState returns the model state a zero.Trainer rank of shape s
// holds at the given stage with a dom-element optimizer domain (its Ψ/N
// partition, all of Ψ at stage 0), under Adam, in fp32 or with fp16
// compute: 4Ψ + 12·dom + W and 2Ψ + 16·dom + W at stages 0-2, 16·dom + W +
// 4·Wp and 18·dom + W + 2·Wp at stage 3.
func LiveModelState(s Shape, stage int, dom int64, fp16 bool) LiveState {
	if stage < 0 || stage > 3 || dom < 0 {
		panic(fmt.Sprintf("perfmodel: invalid LiveModelState arguments: stage %d, dom %d", stage, dom))
	}
	h := int64(s.Hidden)
	emb, lnF := int64(s.Vocab+s.Seq)*h, 2*h
	unit, block := 4*h*h+6*h, 12*h*h+13*h
	width := int64(4)
	if fp16 {
		width = 2
	}
	l := LiveState{Params: width * s.Params(), Grads: 4 * (emb + lnF + 2*unit), Domain: 12 * dom}
	if stage == 3 {
		l.Params = width * (emb + lnF + int64(min(2, s.Layers))*block)
	}
	if fp16 || stage == 3 { // a master of its own
		l.Domain += 4 * dom
	}
	if fp16 && stage == 3 { // the half shard
		l.Domain += 2 * dom
	}
	return l
}

// ModelStateGB is ModelStateBytes in the paper's decimal gigabytes.
func ModelStateGB(psi int64, stage, nd int) float64 {
	return ModelStateBytes(psi, stage, nd) / GB
}

// MaxTheoreticalParams returns the largest Ψ whose model states fit in
// budget bytes per device at the given stage, DP degree and MP degree —
// the left half of Table 2 (budget 32 GB, Nd = 64, MP ∈ {1..16}).
func MaxTheoreticalParams(budget float64, stage, nd, mp int) int64 {
	if mp < 1 {
		panic("perfmodel: MP degree must be positive")
	}
	perParam := ModelStateBytes(1e9, stage, nd) / 1e9 // bytes per parameter
	return int64(float64(mp) * budget / perParam)
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

// ResidualBytes estimates the per-device residual-state memory (§3.2:
// activations, temporary buffers, workspaces) of cfg's shape at its
// micro-batch, MP degree and ZeRO-R knobs (Pa, PaCPU, CB).
func ResidualBytes(cfg Config) float64 {
	mp := max(cfg.MP, 1)
	s := cfg.Shape
	// Activation checkpoints: one per layer, B×s×h fp16 each, divided
	// across MP (Megatron splits activations within a block but
	// checkpoints the replicated block input — Pa removes that
	// replication).
	ckpt := 2 * float64(cfg.MicroBatch) * float64(s.Seq) * float64(s.Hidden) * float64(s.Layers)
	if cfg.ZeRO.Pa {
		ckpt /= float64(mp)
	}
	if cfg.ZeRO.PaCPU {
		ckpt = 0
	}
	// Working activations of the deepest live block during recompute.
	working := 12 * float64(cfg.MicroBatch) * float64(s.Seq) * float64(s.Hidden) * 2 / float64(mp)
	// Temporary fused buffers.
	buffers := 4 * float64(s.Params()) / float64(mp)
	if cfg.ZeRO.CB {
		buffers = constantBufferBytes
	}
	return ckpt + working + buffers + workspaceBytes
}

// DeviceBytes is one device's share of a run: its model states (split MP
// ways) plus its residual states.
func DeviceBytes(cfg Config) float64 {
	return ModelStateBytes(cfg.Shape.Params(), cfg.ZeRO.Stage, cfg.DP)/float64(max(cfg.MP, 1)) + ResidualBytes(cfg)
}

// ShapeForParams picks a representative GPT-2-like shape for a target
// parameter count: the hidden size (and head count) of Table 4's ladder,
// and as many layers as Ψ affords on top of the embeddings.
func ShapeForParams(psi int64) Shape {
	var hidden, heads int
	switch {
	case psi < 2e9:
		hidden, heads = 1920, 16
	case psi < 4e9:
		hidden, heads = 2304, 24
	case psi < 9e9:
		hidden, heads = 3072, 24
	case psi < 15e9:
		hidden, heads = 4096, 32
	case psi < 50e9:
		hidden, heads = 6144, 32
	default:
		hidden, heads = 8192, 64
	}
	emb := GPT2Like(0, hidden, heads).Params()
	perLayer := GPT2Like(1, hidden, heads).Params() - emb
	layers := int((psi - emb) / perLayer)
	if layers < 1 {
		layers = 1
	}
	return GPT2Like(layers, hidden, heads)
}

// MaxMeasuredParams returns the largest Ψ that fits in budget bytes per
// device once residual states and fragmentation slack are charged — the
// right half of Table 2 and the Figure 6 bars. Each candidate Ψ runs as
// ShapeForParams(Ψ) in place of cfg.Shape; the slack reserves a fraction
// of the budget, lost to fragmentation without MD.
func MaxMeasuredParams(budget float64, cfg Config) int64 {
	slack := fragSlackBaseline
	if cfg.ZeRO.MD {
		slack = fragSlackMD
	}
	usable := budget * (1 - slack)
	fits := func(psi int64) bool {
		cfg.Shape = ShapeForParams(psi)
		return DeviceBytes(cfg) <= usable
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
