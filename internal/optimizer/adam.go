// Package optimizer implements the training optimizers the paper's memory
// analysis is built around: Adam with fp32 state (the K=12 memory
// multiplier of §3.1), momentum SGD, and the mixed-precision machinery
// (fp32 master weights, dynamic loss scaling) whose state ZeRO partitions.
//
// Surface: New builds the Optimizer a Spec names (ParseKind, Kind), over
// Adam, SGD or LAMB (whose PrepareUpdate and ApplyBlock let zero aggregate
// trust ratios across shards); NewLossScaler for dynamic loss scaling;
// PartialSquaredSum, GlobalGradNorm and ClipScale for partitioned clipping,
// whose partials the caller computes and exchanges. Imports no comm.
// Imported by zero, engine and bench.
package optimizer

import "math"

// AdamK is the mixed-precision Adam memory multiplier: per parameter, the
// optimizer holds an fp32 master copy (4 bytes), fp32 momentum (4) and fp32
// variance (4) — K = 12 bytes on top of the 2-byte fp16 parameter and
// 2-byte fp16 gradient (§3.1).
const AdamK = 12

// Adam is the Adam optimizer over a flat parameter slice (or any shard of
// one — ZeRO ranks instantiate Adam over just their partition, which is
// exactly how Pos shrinks optimizer memory by Nd).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	m, v []float32 // first/second moment estimates
	t    int       // step count for bias correction
}

// NewAdam creates an Adam instance managing n parameters with the standard
// hyperparameters (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(n int, lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make([]float32, n),
		v:     make([]float32, n),
	}
}

// Len returns the number of parameters this instance manages.
func (a *Adam) Len() int { return len(a.m) }

// Step applies one Adam update to params given grads. Both slices must have
// length Len(). The update is elementwise and deterministic, so a
// partitioned step over shards composes to exactly the full-buffer step —
// the invariant ZeRO-DP relies on.
func (a *Adam) Step(params, grads []float32) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic("optimizer: Adam.Step length mismatch")
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	adamStep(params, a.m, a.v, grads, float32(a.Beta1), float32(a.Beta2), float32(a.WeightDecay),
		bc1, bc2, a.LR, a.Eps)
}

// adamScalar is the Adam update loop: the whole implementation on the
// generic build, and on amd64 the reference the packed kernel is pinned to,
// its tail, and the weight-decay path. wd == 0 disables weight decay.
func adamScalar(params, m, v, grads []float32, b1, b2, wd float32, bc1, bc2, lr, eps float64) {
	for i, g := range grads {
		if wd != 0 {
			g += wd * params[i]
		}
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		params[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
	}
}

// Steps returns the number of updates applied so far.
func (a *Adam) Steps() int { return a.t }

// State exposes the live momentum and variance buffers, in that order.
// Checkpointing gathers these across ZeRO shards; mutate only when
// restoring.
func (a *Adam) State() [][]float32 { return [][]float32{a.m, a.v} }

// Restore overwrites the optimizer state (momentum, variance, step count),
// e.g. when resuming from a checkpoint. The shape must match State()'s.
func (a *Adam) Restore(state [][]float32, steps int) {
	if len(state) != 2 || len(state[0]) != len(a.m) || len(state[1]) != len(a.v) {
		panic("optimizer: Adam.Restore shape mismatch")
	}
	copy(a.m, state[0])
	copy(a.v, state[1])
	a.t = steps
}

// GlobalGradNorm computes the L2 norm of a gradient vector from
// partition-wise partial sums accumulated in a fixed order. Every ZeRO
// stage computes the norm through this exact arithmetic — float64
// accumulation per partition, float32 partials summed in partition order —
// so gradient clipping stays bitwise identical across them.
func GlobalGradNorm(partials []float32) float64 {
	var total float32
	for _, p := range partials {
		total += p
	}
	return math.Sqrt(float64(total))
}

// PartialSquaredSum returns the float32 partial Σg² of one partition.
func PartialSquaredSum(g []float32) float32 {
	var s float64
	for _, v := range g {
		s += float64(v) * float64(v)
	}
	return float32(s)
}

// ClipScale returns the multiplier that caps the gradient norm at maxNorm
// (1 when already within bounds).
func ClipScale(norm, maxNorm float64) float32 {
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return 1
	}
	return float32(maxNorm / norm)
}

// SGD is momentum SGD, the low-memory baseline the paper contrasts with
// adaptive optimizers (§2.3).
type SGD struct {
	LR       float64
	Momentum float64
	buf      []float32
	t        int
}

// newSGD creates a momentum-SGD instance managing n parameters.
func newSGD(n int, lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, buf: make([]float32, n)}
}

// Len returns the number of parameters this instance manages.
func (s *SGD) Len() int { return len(s.buf) }

// Step applies one SGD update.
func (s *SGD) Step(params, grads []float32) {
	if len(params) != len(s.buf) || len(grads) != len(s.buf) {
		panic("optimizer: SGD.Step length mismatch")
	}
	s.t++
	mu := float32(s.Momentum)
	lr := float32(s.LR)
	for i, g := range grads {
		s.buf[i] = mu*s.buf[i] + g
		params[i] -= lr * s.buf[i]
	}
}

// Steps returns the number of updates applied so far.
func (s *SGD) Steps() int { return s.t }

// State exposes the live momentum buffer.
func (s *SGD) State() [][]float32 { return [][]float32{s.buf} }

// Restore overwrites the momentum buffer and step count.
func (s *SGD) Restore(state [][]float32, steps int) {
	if len(state) != 1 || len(state[0]) != len(s.buf) {
		panic("optimizer: SGD.Restore shape mismatch")
	}
	copy(s.buf, state[0])
	s.t = steps
}
