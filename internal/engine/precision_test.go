package engine

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/zero"
)

// The precision block parses from ds_config-style JSON and validates its
// knobs; fp16_compute composes with activation_checkpoint.
func TestPrecisionConfigParseAndValidate(t *testing.T) {
	c, err := ParseConfig([]byte(`{
		"model": {"layers": 2, "hidden": 16, "heads": 2, "vocab": 19, "seq": 8},
		"ranks": 2, "optimizer": {"type": "adam", "lr": 0.001},
		"global_batch": 4, "micro_batch": 4,
		"precision": {"fp16_compute": true, "initial_loss_scale": 4096, "loss_scale_window": 50}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Precision == nil || !c.Precision.FP16Compute ||
		c.Precision.InitialLossScale != 4096 || c.Precision.LossScaleWindow != 50 {
		t.Fatalf("precision block did not round-trip: %+v", c.Precision)
	}
	if _, err := c.Normalized(); err != nil {
		t.Fatalf("valid precision config rejected: %v", err)
	}

	ckpt := c
	ckpt.Checkpoint = true
	if _, err := ckpt.Normalized(); err != nil {
		t.Errorf("fp16_compute + activation_checkpoint rejected: %v", err)
	}
	bad := c
	bad.Precision = &PrecisionConfig{FP16Compute: true, InitialLossScale: -1}
	if _, err := bad.Normalized(); !errors.Is(err, ErrPrecision) {
		t.Errorf("negative initial_loss_scale: got %v, want ErrPrecision", err)
	}
	// Checkpointing alongside a precision block that does NOT enable fp16
	// compute stays legal.
	ok := c
	ok.Checkpoint = true
	ok.Precision = &PrecisionConfig{InitialLossScale: 1024}
	if _, err := ok.Normalized(); err != nil {
		t.Errorf("checkpoint + non-compute precision block rejected: %v", err)
	}
}

// End-to-end: an fp16_compute engine trains, descends, and surfaces the
// dynamic loss scale and overflow-skip count through StepInfo. Seeding the
// scaler absurdly high forces early skips, so both fields are exercised
// away from their zero values.
func TestEngineFP16ComputeObservesLossScale(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Precision = &PrecisionConfig{
		FP16Compute:      true,
		InitialLossScale: float64(uint64(1) << 28),
		LossScaleWindow:  100,
	}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := model.SyntheticBatch(3, norm.GlobalBatch, norm.Model.Seq, norm.Model.Vocab)
	var infos []StepInfo
	var first, last float64
	_, err = Run(norm, func(e *Engine) {
		if e.Rank() == 0 {
			e.Observe(func(si StepInfo) { infos = append(infos, si) })
		}
		for s := 0; s < 30; s++ {
			l := e.TrainBatch(ids, targets)
			if e.Rank() == 0 {
				if s == 0 {
					first = l
				}
				last = l
			}
		}
		if e.Rank() == 0 && e.OverflowSteps() == 0 {
			t.Error("initial scale 2^28 never overflowed fp16")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 30 {
		t.Fatalf("observed %d boundaries, want 30", len(infos))
	}
	if infos[0].LossScale != float64(uint64(1)<<27) {
		t.Errorf("first boundary loss scale %g, want one backoff to 2^27", infos[0].LossScale)
	}
	if infos[0].OverflowSteps != 1 {
		t.Errorf("first boundary OverflowSteps = %d, want 1", infos[0].OverflowSteps)
	}
	lastInfo := infos[len(infos)-1]
	if lastInfo.LossScale >= float64(uint64(1)<<28) || lastInfo.LossScale <= 0 {
		t.Errorf("final loss scale %g did not settle below the seed", lastInfo.LossScale)
	}
	if lastInfo.OverflowSteps >= 30 || lastInfo.OverflowSteps <= 0 {
		t.Errorf("OverflowSteps = %d after 30 boundaries, want a settled positive count", lastInfo.OverflowSteps)
	}
	if last >= first {
		t.Errorf("fp16_compute engine did not descend after recovery: %v -> %v", first, last)
	}
	// The f32 engine reports zeroed precision fields.
	plain := testEngineConfig()
	pn, err := plain.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(pn, func(e *Engine) {
		e.Observe(func(si StepInfo) {
			if si.LossScale != 0 || si.OverflowSteps != 0 {
				t.Errorf("f32 StepInfo carries precision fields: %+v", si)
			}
		})
		e.TrainBatch(ids, targets)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fp16 resume: a snapshot taken after overflow skips carries the loss
// scaler and the boundary clock, so a fresh job that loads it continues
// the uninterrupted run bit for bit — loss per boundary, gathered
// parameters, scale, skips and Steps. The scaler starts at 2^24, so the
// first 8 boundaries back it off to 2^16, and a 4-step growth window puts a
// doubling two boundaries after the save, which only a restored clean-step
// count places right.
func TestEngineFP16ResumeKeepsScalerAndClock(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Precision = &PrecisionConfig{FP16Compute: true, InitialLossScale: 1 << 24, LossScaleWindow: 4}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	const saveAt, total, skips = 10, 16, 8
	type state struct {
		losses       []float64
		params       []float32
		scale        float64
		skips, steps int
	}
	// run trains from snap (nil: from scratch) until Steps reaches `until`,
	// and returns rank 0's view plus its snapshot.
	run := func(snap *zero.Snapshot, until int) (state, *zero.Snapshot) {
		var st state
		var saved *zero.Snapshot
		if _, err := Run(norm, func(e *Engine) {
			b := model.NewSyntheticStream(norm.Seed, norm.GlobalBatch, norm.MicroBatch, norm.Model.Seq, norm.Model.Vocab)
			if snap != nil {
				if err := e.Load(snap); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < snap.Boundaries()*norm.GradAccumSteps; i++ {
					b.NextBatch()
				}
			}
			for e.Steps() < until {
				l := e.TrainStream(b)
				if e.Rank() == 0 {
					st.losses = append(st.losses, l)
				}
			}
			params := e.Trainer().GatheredParams()
			if s := e.Save(); s != nil {
				st.params, st.scale, st.skips, st.steps = params, e.LossScale(), e.OverflowSteps(), e.Steps()
				saved = s
			}
		}); err != nil {
			t.Fatal(err)
		}
		return st, saved
	}

	want, _ := run(nil, total)
	first, snap := run(nil, saveAt)
	if first.skips != skips || first.scale != 1<<16 {
		t.Fatalf("precondition: %d skips at scale %g after %d boundaries, want %d at 2^16", first.skips, first.scale, saveAt, skips)
	}
	blob, err := encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = zero.DecodeSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if snap.Boundaries() != saveAt || snap.OptSteps != saveAt-skips {
		t.Fatalf("snapshot clock: %d boundaries, %d optimizer steps; want %d and %d", snap.Boundaries(), snap.OptSteps, saveAt, saveAt-skips)
	}
	resumed, _ := run(snap, total)
	got := state{append(first.losses, resumed.losses...), resumed.params, resumed.scale, resumed.skips, resumed.steps}
	if len(got.losses) != len(want.losses) {
		t.Fatalf("resumed run trained %d boundaries, uninterrupted %d", len(got.losses), len(want.losses))
	}
	for i := range want.losses {
		if got.losses[i] != want.losses[i] {
			t.Errorf("boundary %d: resumed loss %.17g, uninterrupted %.17g", i+1, got.losses[i], want.losses[i])
		}
	}
	if d := testutil.MaxDiff(got.params, want.params); d != 0 || len(got.params) != len(want.params) {
		t.Errorf("resumed parameters differ from uninterrupted by %g", d)
	}
	if got.scale != want.scale || got.skips != want.skips || got.steps != want.steps {
		t.Errorf("resumed scale %g, skips %d, Steps %d; uninterrupted %g, %d, %d",
			got.scale, got.skips, got.steps, want.scale, want.skips, want.steps)
	}
}
