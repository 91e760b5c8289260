package engine

import (
	"errors"
	"testing"

	"repro/internal/model"
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
