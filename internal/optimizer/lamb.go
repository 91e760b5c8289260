package optimizer

import (
	"math"

	"repro/internal/tensor"
)

// LAMB is the layer-wise adaptive large-batch optimizer (You et al., cited
// by the paper as [22]). It keeps the same 2×fp32 state as Adam but adds a
// per-block trust ratio ‖w‖/‖update‖, making very large global batches
// trainable — exactly the "more complex and memory hungry optimizers" §2.3
// says ZeRO makes practical, since its state partitions the same way
// Adam's does.
type LAMB struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	m, v []float32
	t    int
}

// newLAMB creates a LAMB instance managing n parameters.
func newLAMB(n int, lr float64) *LAMB {
	return &LAMB{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-6,
		m:     make([]float32, n),
		v:     make([]float32, n),
	}
}

// Len returns the number of parameters this instance manages.
func (l *LAMB) Len() int { return len(l.m) }

// Step applies one LAMB update, treating the whole managed slice as one
// trust-ratio block. ZeRO shards keep layer-wise semantics by running
// PrepareUpdate and ApplyBlock over per-tensor segments.
func (l *LAMB) Step(params, grads []float32) {
	l.stepBlocks(params, grads, []int{0, len(params)})
}

// stepBlocks applies one LAMB update with trust ratios computed per block;
// bounds is a sorted offset list (len = #blocks+1) delimiting the blocks
// (typically tensor boundaries from model.Layout clipped to the shard).
func (l *LAMB) stepBlocks(params, grads []float32, bounds []int) {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != len(params) {
		panic("optimizer: LAMB.stepBlocks bounds must cover the slice")
	}
	update := make([]float32, len(params))
	l.PrepareUpdate(params, grads, update)
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]
		if lo == hi {
			continue
		}
		wNorm := tensor.Norm2(params[lo:hi])
		uNorm := tensor.Norm2(update[lo:hi])
		l.ApplyBlock(params, update, lo, hi, TrustRatio(wNorm, uNorm))
	}
}

// PrepareUpdate advances the moment estimates and writes the raw
// pre-trust-ratio update (Adam direction plus decoupled weight decay) into
// update. It is the elementwise, shard-composable half of a LAMB step; the
// caller chooses how block norms are aggregated before ApplyBlock — the
// hook ZeRO trainers use to compute trust ratios over FULL tensors from
// partition-ordered partial norms, keeping the update identical at every
// partitioning stage.
func (l *LAMB) PrepareUpdate(params, grads, update []float32) {
	if len(params) != len(l.m) || len(grads) != len(l.m) || len(update) != len(l.m) {
		panic("optimizer: LAMB.PrepareUpdate length mismatch")
	}
	l.t++
	bc1 := 1 - math.Pow(l.Beta1, float64(l.t))
	bc2 := 1 - math.Pow(l.Beta2, float64(l.t))
	b1 := float32(l.Beta1)
	b2 := float32(l.Beta2)
	for i, g := range grads {
		l.m[i] = b1*l.m[i] + (1-b1)*g
		l.v[i] = b2*l.v[i] + (1-b2)*g*g
		mhat := float64(l.m[i]) / bc1
		vhat := float64(l.v[i]) / bc2
		u := mhat/(math.Sqrt(vhat)+l.Eps) + l.WeightDecay*float64(params[i])
		update[i] = float32(u)
	}
}

// ApplyBlock applies params[lo:hi] -= lr·trust·update[lo:hi].
func (l *LAMB) ApplyBlock(params, update []float32, lo, hi int, trust float64) {
	scale := float32(l.LR * trust)
	for i := lo; i < hi; i++ {
		params[i] -= scale * update[i]
	}
}

// TrustRatio is LAMB's ‖w‖/‖update‖ with the degenerate cases (fresh or
// empty tensors) pinned to 1.
func TrustRatio(wNorm, uNorm float64) float64 {
	if wNorm > 0 && uNorm > 0 {
		return wNorm / uNorm
	}
	return 1
}

// Steps returns the number of updates applied so far.
func (l *LAMB) Steps() int { return l.t }

// State exposes the live momentum and variance buffers, in that order.
func (l *LAMB) State() [][]float32 { return [][]float32{l.m, l.v} }

// Restore overwrites the optimizer state and step count.
func (l *LAMB) Restore(state [][]float32, steps int) {
	if len(state) != 2 || len(state[0]) != len(l.m) || len(state[1]) != len(l.v) {
		panic("optimizer: LAMB.Restore shape mismatch")
	}
	copy(l.m, state[0])
	copy(l.v, state[1])
	l.t = steps
}
