package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// TestAdamFirstStepHandComputed checks the very first update against the
// closed form: with zero state, m̂ = g, v̂ = g², so Δ = lr·g/(|g|+ε) ≈
// lr·sign(g).
func TestAdamFirstStepHandComputed(t *testing.T) {
	a := NewAdam(3, 0.1)
	params := []float32{1, 2, -3}
	grads := []float32{0.5, -2, 0.001}
	want := make([]float32, 3)
	for i := range want {
		g := float64(grads[i])
		want[i] = params[i] - float32(0.1*g/(math.Sqrt(g*g)+1e-8))
	}
	a.Step(params, grads)
	for i := range want {
		if math.Abs(float64(params[i]-want[i])) > 1e-6 {
			t.Errorf("param[%d] = %v, want %v", i, params[i], want[i])
		}
	}
	if a.Steps() != 1 {
		t.Errorf("Steps() = %d", a.Steps())
	}
}

// TestAdamConvergesOnQuadratic minimizes f(x) = Σ(x-c)² and expects x → c.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	n := 8
	target := make([]float32, n)
	for i := range target {
		target[i] = float32(i) - 3.5
	}
	x := make([]float32, n)
	a := NewAdam(n, 0.05)
	g := make([]float32, n)
	for step := 0; step < 2000; step++ {
		for i := range g {
			g[i] = 2 * (x[i] - target[i])
		}
		a.Step(x, g)
	}
	if d := tensor.MaxDiff(x, target); d > 1e-2 {
		t.Errorf("Adam did not converge: max |x-c| = %g", d)
	}
}

// TestPartitionedAdamEqualsFullAdam is the key ZeRO invariant (§5.1): N
// Adam instances, each owning a disjoint shard, must produce bitwise the
// same trajectory as one Adam over the whole buffer.
func TestPartitionedAdamEqualsFullAdam(t *testing.T) {
	const n, parts, steps = 103, 4, 25
	r := rand.New(rand.NewSource(1))

	full := make([]float32, n)
	for i := range full {
		full[i] = float32(r.NormFloat64())
	}
	sharded := append([]float32(nil), full...)

	fullOpt := NewAdam(n, 0.01)
	bounds := make([]int, parts+1)
	for p := 1; p <= parts; p++ {
		bounds[p] = p * n / parts
	}
	shardOpts := make([]*Adam, parts)
	for p := range shardOpts {
		shardOpts[p] = NewAdam(bounds[p+1]-bounds[p], 0.01)
	}

	grads := make([]float32, n)
	for s := 0; s < steps; s++ {
		for i := range grads {
			grads[i] = float32(r.NormFloat64())
		}
		fullOpt.Step(full, grads)
		for p := 0; p < parts; p++ {
			shardOpts[p].Step(sharded[bounds[p]:bounds[p+1]], grads[bounds[p]:bounds[p+1]])
		}
	}
	for i := range full {
		if full[i] != sharded[i] {
			t.Fatalf("partitioned Adam diverged at %d: %v vs %v", i, full[i], sharded[i])
		}
	}
}

func TestAdamWeightDecay(t *testing.T) {
	a := NewAdam(1, 0.1)
	a.WeightDecay = 0.1
	params := []float32{10}
	// Zero gradient: only decay drives the update, pulling toward zero.
	for i := 0; i < 50; i++ {
		a.Step(params, []float32{0})
	}
	if params[0] >= 10 || params[0] < 0 {
		t.Errorf("weight decay should shrink the parameter: %v", params[0])
	}
}

func TestSGDMomentum(t *testing.T) {
	s := NewSGD(1, 0.1, 0.9)
	params := []float32{0}
	s.Step(params, []float32{1})
	if params[0] != -0.1 {
		t.Errorf("first step %v, want -0.1", params[0])
	}
	s.Step(params, []float32{1})
	// buf = 0.9*1 + 1 = 1.9 → Δ = 0.19.
	if math.Abs(float64(params[0])+0.29) > 1e-6 {
		t.Errorf("second step %v, want -0.29", params[0])
	}
}

func TestStepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAdam(2, 0.1).Step(make([]float32, 3), make([]float32, 3))
}

func TestLossScalerDynamics(t *testing.T) {
	s := NewLossScaler()
	s.GrowthInterval = 3
	start := s.Scale
	// Overflow halves the scale and requests a skip.
	if !s.Update(true) {
		t.Error("overflow must skip")
	}
	if s.Scale != start/2 {
		t.Errorf("scale after backoff %v, want %v", s.Scale, start/2)
	}
	// Three clean steps double it.
	for i := 0; i < 3; i++ {
		if s.Update(false) {
			t.Error("clean step must not skip")
		}
	}
	if s.Scale != start {
		t.Errorf("scale after growth %v, want %v", s.Scale, start)
	}
	if s.Skips() != 1 {
		t.Errorf("Skips() = %d", s.Skips())
	}
}

func TestLossScalerFloorsAtOne(t *testing.T) {
	s := NewLossScaler()
	for i := 0; i < 64; i++ {
		s.Update(true)
	}
	if s.Scale < 1 {
		t.Errorf("scale fell below 1: %v", s.Scale)
	}
}

// The replicated (stage 0) and partitioned norm paths must produce the
// identical partial vector: PartitionSquaredSums over the full buffer
// equals per-shard PartialSquaredSum in partition order.
func TestPartitionSquaredSumsMatchesShardPartials(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := make([]float32, 1003)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	parts := comm.Partition(len(g), 4)
	full := PartitionSquaredSums(g, parts)
	for i, p := range parts {
		if shard := PartialSquaredSum(g[p.Lo:p.Hi]); shard != full[i] {
			t.Errorf("partition %d: %v != %v", i, full[i], shard)
		}
	}
	if GlobalGradNorm(full) <= 0 {
		t.Error("norm should be positive")
	}
}
