package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestLAMBConvergesOnQuadratic(t *testing.T) {
	n := 8
	target := make([]float32, n)
	for i := range target {
		target[i] = float32(i)*0.5 - 2
	}
	x := make([]float32, n)
	tensor.Fill(x, 1) // non-zero start so trust ratios are defined
	l := newLAMB(n, 0.02)
	g := make([]float32, n)
	for step := 0; step < 6000; step++ {
		for i := range g {
			g[i] = 2 * (x[i] - target[i])
		}
		if step == 3000 {
			l.LR = 0.002 // decay: the trust ratio keeps steps ∝ ‖w‖, so anneal to land
		}
		l.Step(x, g)
	}
	if d := testutil.MaxDiff(x, target); d > 5e-2 {
		t.Errorf("LAMB did not converge: max |x-c| = %g", d)
	}
}

// The trust ratio scales the update by ‖w‖/‖u‖: doubling the weights (same
// gradient direction) must double the applied step.
func TestLAMBTrustRatioScalesWithWeightNorm(t *testing.T) {
	grad := []float32{1, 1, 1, 1}

	small := newLAMB(4, 0.1)
	ws := []float32{1, 1, 1, 1}
	wsBefore := append([]float32(nil), ws...)
	small.Step(ws, grad)

	big := newLAMB(4, 0.1)
	wb := []float32{2, 2, 2, 2}
	wbBefore := append([]float32(nil), wb...)
	big.Step(wb, grad)

	ds := float64(wsBefore[0] - ws[0])
	db := float64(wbBefore[0] - wb[0])
	if math.Abs(db/ds-2) > 1e-3 {
		t.Errorf("trust ratio: big/small step ratio %v, want 2", db/ds)
	}
}

// Per-block trust ratios: partitioned LAMB over tensor-aligned blocks must
// equal full LAMB with the same block boundaries (the ZeRO sharding
// invariant for LAMB).
func TestPartitionedLAMBEqualsFullLAMB(t *testing.T) {
	const n, steps = 64, 10
	bounds := []int{0, 16, 48, 64} // three "tensors"
	r := rand.New(rand.NewSource(2))
	full := make([]float32, n)
	for i := range full {
		full[i] = float32(r.NormFloat64()) + 2
	}
	sharded := append([]float32(nil), full...)

	fullOpt := newLAMB(n, 0.01)
	// Shards split at a block boundary (16): LAMB shards must align with
	// tensor blocks for the trust ratio to partition cleanly.
	shardA := newLAMB(16, 0.01)
	shardB := newLAMB(48, 0.01)

	grads := make([]float32, n)
	for s := 0; s < steps; s++ {
		for i := range grads {
			grads[i] = float32(r.NormFloat64())
		}
		fullOpt.stepBlocks(full, grads, bounds)
		shardA.stepBlocks(sharded[:16], grads[:16], []int{0, 16})
		shardB.stepBlocks(sharded[16:], grads[16:], []int{0, 32, 48})
	}
	for i := range full {
		if full[i] != sharded[i] {
			t.Fatalf("partitioned LAMB diverged at %d: %v vs %v", i, full[i], sharded[i])
		}
	}
}

func TestLAMBStateAccounting(t *testing.T) {
	l := newLAMB(100, 0.1)
	st := l.State()
	if len(st) != 2 || len(st[0]) != 100 || len(st[1]) != 100 {
		t.Errorf("State shape %d buffers, want 2 × 100 fp32 (the same as Adam's)", len(st))
	}
	if l.Len() != 100 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestLAMBValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("length", func() { newLAMB(2, 0.1).Step(make([]float32, 3), make([]float32, 3)) })
	mustPanic("bounds", func() {
		newLAMB(4, 0.1).stepBlocks(make([]float32, 4), make([]float32, 4), []int{0, 2})
	})
}
