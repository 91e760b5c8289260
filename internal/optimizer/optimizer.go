package optimizer

import (
	"fmt"
	"strings"
)

// Optimizer is the trainer-facing contract every training optimizer
// implements. ZeRO instantiates one Optimizer per rank over that rank's
// partition of the flat parameter space (the full buffer at stage 0); the
// update must be deterministic and shard-composable — a partitioned step
// over disjoint shards equals the full-buffer step bitwise, the invariant
// §5.1 relies on. Adam, momentum SGD and LAMB all satisfy it: Adam and SGD
// are elementwise, and LAMB's trust-ratio blocks are clipped to tensor
// boundaries so no block ever spans two shards' worth of differing state.
type Optimizer interface {
	// Step applies one update to params given grads; both slices must have
	// length Len().
	Step(params, grads []float32)
	// Len returns the number of parameters this instance manages.
	Len() int
	// Steps returns the number of updates applied so far.
	Steps() int
	// State exposes the live state tensors in a fixed per-kind order, each
	// of length Len(). Checkpointing gathers these across ZeRO shards;
	// mutate only when restoring.
	State() [][]float32
	// Restore overwrites the optimizer state and step count, e.g. when
	// resuming from a checkpoint. The slice count and lengths must match
	// State()'s shape.
	Restore(state [][]float32, steps int)
}

// Kind names a config-selectable optimizer family.
type Kind string

const (
	// KindAdam is mixed-precision Adam, the K=12 optimizer of §3.1.
	KindAdam Kind = "adam"
	// KindSGD is momentum SGD, the low-memory baseline of §2.3.
	KindSGD Kind = "sgd"
	// KindLAMB is the layer-wise adaptive large-batch optimizer ([22],
	// §2.3's "more complex and memory hungry" family ZeRO makes practical).
	KindLAMB Kind = "lamb"
)

// ParseKind converts a user-facing optimizer name into a Kind; the empty
// string defaults to Adam (the paper's optimizer).
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "adam":
		return KindAdam, nil
	case "sgd", "momentum":
		return KindSGD, nil
	case "lamb":
		return KindLAMB, nil
	}
	return "", fmt.Errorf("optimizer: unknown kind %q (want adam, sgd or lamb)", s)
}

// Spec is a declarative optimizer selection: the one struct engine configs
// compile down to, so every entry point constructs optimizers through the
// same switch instead of hand-picking constructors.
type Spec struct {
	Kind        Kind
	LR          float64
	Momentum    float64 // SGD only (0.9 when zero)
	WeightDecay float64 // Adam/LAMB decoupled decay
}

// New constructs the optimizer sp describes over n parameters. An empty
// Kind means Adam.
func New(sp Spec, n int) (Optimizer, error) {
	kind, err := ParseKind(string(sp.Kind))
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindAdam:
		a := NewAdam(n, sp.LR)
		a.WeightDecay = sp.WeightDecay
		return a, nil
	case KindSGD:
		mu := sp.Momentum
		if mu == 0 {
			mu = 0.9
		}
		return newSGD(n, sp.LR, mu), nil
	case KindLAMB:
		l := newLAMB(n, sp.LR)
		l.WeightDecay = sp.WeightDecay
		return l, nil
	}
	return nil, fmt.Errorf("optimizer: unknown kind %q", kind)
}
