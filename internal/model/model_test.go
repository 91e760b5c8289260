package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func tinyConfig() Config {
	return Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 23, Seq: 8}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyConfig()
	bad.Heads = 3 // does not divide 16
	if bad.Validate() == nil {
		t.Error("expected divisibility error")
	}
	if (Config{}).Validate() == nil {
		t.Error("expected positivity error")
	}
}

func TestLayoutCoversBufferExactly(t *testing.T) {
	cfg := tinyConfig()
	layout := BuildLayout(cfg)
	// Segments must tile [0, Total) without gaps or overlap.
	off := 0
	for _, s := range layout.Segments {
		if s.Lo != off {
			t.Fatalf("segment %s starts at %d, expected %d", s.Name, s.Lo, off)
		}
		if s.Len() <= 0 {
			t.Fatalf("segment %s empty", s.Name)
		}
		off = s.Hi
	}
	if off != layout.Total {
		t.Fatalf("segments cover %d of %d", off, layout.Total)
	}
	// Parameter-count formula: 12h²+13h per layer + (V+S)h + 2h.
	h := cfg.Hidden
	want := cfg.Layers*(12*h*h+13*h) + (cfg.Vocab+cfg.Seq)*h + 2*h
	if layout.Total != want {
		t.Errorf("ParamCount = %d, want %d", layout.Total, want)
	}
}

func TestLayerSegmentsPartitionLayout(t *testing.T) {
	cfg := tinyConfig()
	layout := BuildLayout(cfg)
	groups := layout.LayerSegments(cfg.Layers)
	if len(groups) != cfg.Layers+2 {
		t.Fatalf("got %d groups, want %d", len(groups), cfg.Layers+2)
	}
	off := 0
	for _, g := range groups {
		if g.Lo != off {
			t.Fatalf("group %s starts at %d, expected %d", g.Name, g.Lo, off)
		}
		off = g.Hi
	}
	if off != layout.Total {
		t.Fatalf("groups cover %d of %d", off, layout.Total)
	}
}

func TestLossIsFiniteAndNearUniformAtInit(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, 1)
	ids, targets := SyntheticBatch(7, 3, cfg.Seq, cfg.Vocab)
	loss := m.Loss(ids, targets, 3)
	uniform := math.Log(float64(cfg.Vocab))
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	// Near-uniform prediction at small random init.
	if math.Abs(loss-uniform) > 0.5 {
		t.Errorf("initial loss %.3f, want ≈ ln(V) = %.3f", loss, uniform)
	}
}

func TestDeterministicForward(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)
	m1 := New(cfg, 42)
	m2 := New(cfg, 42)
	l1 := m1.Loss(ids, targets, 2)
	l2 := m2.Loss(ids, targets, 2)
	if l1 != l2 {
		t.Errorf("same seed, different loss: %v vs %v", l1, l2)
	}
	if d := testutil.MaxDiff(m1.Params, m2.Params); d != 0 {
		t.Errorf("same seed, different params: %g", d)
	}
}

// Full-model gradient check: analytic gradients against central finite
// differences on a sample of parameters from every tensor type.
func TestModelGradientCheck(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 8, Heads: 2, Vocab: 11, Seq: 5}
	m := New(cfg, 3)
	ids, targets := SyntheticBatch(5, 2, cfg.Seq, cfg.Vocab)
	batch := 2

	m.ZeroGrads()
	loss0 := m.Loss(ids, targets, batch)
	if loss0 <= 0 {
		t.Fatal("degenerate loss")
	}
	m.Backward()
	analytic := append([]float32(nil), m.Grads...)

	const eps = 1e-3
	check := func(idx int, label string) {
		orig := m.Params[idx]
		m.Params[idx] = orig + eps
		lp := m.Loss(ids, targets, batch)
		m.Params[idx] = orig - eps
		lm := m.Loss(ids, targets, batch)
		m.Params[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		got := float64(analytic[idx])
		tol := 2e-2*math.Max(math.Abs(numeric), math.Abs(got)) + 2e-3
		if math.Abs(got-numeric) > tol {
			t.Errorf("%s grad[%d]: analytic %.6f numeric %.6f", label, idx, got, numeric)
		}
	}
	for _, seg := range m.Layout.Segments {
		// Probe three offsets per tensor: first, middle, last.
		check(seg.Lo, seg.Name)
		check(seg.Lo+seg.Len()/2, seg.Name)
		check(seg.Hi-1, seg.Name)
	}
}

// Activation checkpointing must be numerically identical to the vanilla
// backward pass (it recomputes the same floats).
func TestCheckpointingMatchesVanilla(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(11, 2, cfg.Seq, cfg.Vocab)

	vanilla := New(cfg, 9)
	vanilla.ZeroGrads()
	lv := vanilla.Loss(ids, targets, 2)
	vanilla.Backward()

	ckpt := New(cfg, 9)
	ckpt.Checkpoint = true
	ckpt.ZeroGrads()
	lc := ckpt.Loss(ids, targets, 2)
	ckpt.Backward()

	if lv != lc {
		t.Errorf("loss differs under checkpointing: %v vs %v", lv, lc)
	}
	if d := testutil.MaxDiff(vanilla.Grads, ckpt.Grads); d != 0 {
		t.Errorf("gradients differ under checkpointing by %g", d)
	}
}

// A few plain-SGD steps on a learnable synthetic pattern must reduce loss —
// the end-to-end sanity check that forward, backward and the data generator
// cohere.
func TestTrainingReducesLoss(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	m := New(cfg, 5)
	ids, targets := SyntheticBatch(21, 4, cfg.Seq, cfg.Vocab)
	first := m.Loss(ids, targets, 4)
	loss := first
	const lr = 0.05
	for step := 0; step < 30; step++ {
		m.ZeroGrads()
		loss = m.Loss(ids, targets, 4)
		m.Backward()
		testutil.AXPY(-lr, m.Grads, m.Params)
	}
	if loss >= first-0.3 {
		t.Errorf("loss did not fall: %.4f -> %.4f", first, loss)
	}
}

func TestCausalMasking(t *testing.T) {
	// Changing a *future* token must not change the logits (and hence the
	// per-position loss contribution) of earlier positions. We test via
	// the total loss of a batch where only the last target differs in
	// position weighting — more directly: perturb the final input token
	// and verify the loss contribution of position 0 is unchanged by
	// comparing losses with identical targets at position 0 only.
	cfg := Config{Layers: 1, Hidden: 8, Heads: 2, Vocab: 7, Seq: 4}
	base := []int{1, 2, 3, 4}
	alt := []int{1, 2, 3, 5} // future-most token differs
	targets := []int{2, 3, 4, 5}

	lossAt := func(ids []int, pos int) float64 {
		// Loss with a one-position target mask: compare full losses of
		// target vectors differing only at pos is awkward; instead read
		// the model's probability of the target at pos via the loss of a
		// batch of size 1 and the chain: run forward, then recompute.
		m2 := New(cfg, 13)
		_ = m2.Loss(ids, targets, 1)
		probs := m2.fwd.probs
		return float64(probs[pos*cfg.Vocab+targets[pos]])
	}
	for pos := 0; pos < 3; pos++ {
		pBase := lossAt(base, pos)
		pAlt := lossAt(alt, pos)
		if pBase != pAlt {
			t.Errorf("position %d prediction changed when a future token changed: %v vs %v", pos, pBase, pAlt)
		}
	}
	// The final position must differ (it attends to the changed token).
	if lossAt(base, 3) == lossAt(alt, 3) {
		t.Error("final position should see the changed token")
	}
}

func TestShardBatch(t *testing.T) {
	ids, targets := SyntheticBatch(1, 8, 4, 10)
	for rank := 0; rank < 4; rank++ {
		sIDs, sTg, per := ShardBatch(ids, targets, 8, 4, rank)
		if per != 2 || len(sIDs) != 8 || len(sTg) != 8 {
			t.Fatalf("rank %d: per=%d len=%d", rank, per, len(sIDs))
		}
		// Shard r must equal rows [2r, 2r+2).
		for i, v := range sIDs {
			if v != ids[rank*8+i] {
				t.Fatalf("rank %d shard mismatch at %d", rank, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on indivisible batch")
		}
	}()
	ShardBatch(ids, targets, 8, 3, 0)
}

func TestBackwardWithoutLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(tinyConfig(), 1).Backward()
}

// InitParams writes any range [lo, hi) of New's initial parameters bit for
// bit, for 1- and 4-layer configs: random ranges (almost all of which
// straddle segments), every range of one to three elements around each
// segment boundary, and the whole layout. The destination starts as NaN,
// so an element the init skips shows.
func TestInitParamsMatchesNew(t *testing.T) {
	const seed = 5
	for _, layers := range []int{1, 4} {
		cfg := tinyConfig()
		cfg.Layers = layers
		want := New(cfg, seed).Params
		same := func(lo, hi int) bool {
			got := make([]float32, hi-lo)
			for i := range got {
				got[i] = float32(math.NaN())
			}
			InitParams(cfg, seed, lo, got)
			for i, v := range got {
				if math.Float32bits(v) != math.Float32bits(want[lo+i]) {
					t.Logf("L=%d [%d, %d): element %d = %g, New has %g", layers, lo, hi, lo+i, v, want[lo+i])
					return false
				}
			}
			return true
		}
		total := uint32(len(want))
		prop := func(a, b uint32) bool {
			lo, hi := int(a%(total+1)), int(b%(total+1))
			return same(min(lo, hi), max(lo, hi))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(int64(layers)))}); err != nil {
			t.Errorf("L=%d: %v", layers, err)
		}
		for _, seg := range BuildLayout(cfg).Segments[1:] {
			for lo := seg.Lo - 2; lo < seg.Lo+1; lo++ {
				for hi := lo + 1; hi <= seg.Lo+2 && hi-lo <= 3; hi++ {
					if !same(lo, hi) {
						t.Errorf("L=%d: range [%d, %d) across the start of %s differs from New", layers, lo, hi, seg.Name)
					}
				}
			}
		}
		if !same(0, len(want)) {
			t.Errorf("L=%d: the whole layout differs from New", layers)
		}
	}
}
