package zero

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/optimizer"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// The memory planner is internal/perfmodel's; these tests drive it with
// this package's Stage values, the ints perfmodel keys stages by.

func approx(got, want, relTol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= relTol
}

// Figure 1's worked example: Ψ=7.5B, Nd=64, K=12 → 120 GB baseline,
// 31.4 GB with Pos, 16.6 GB with Pos+g, 1.9 GB with Pos+g+p.
func TestFigure1Example(t *testing.T) {
	const psi, nd = 7_500_000_000, 64
	cases := []struct {
		stage Stage
		want  float64
	}{
		{StageDDP, 120},
		{StageOS, 31.4},
		{StageOSGrad, 16.6},
		{StageFull, 1.88},
	}
	for _, c := range cases {
		got := perfmodel.ModelStateGB(psi, int(c.stage), nd)
		if !approx(got, c.want, 0.01) {
			t.Errorf("%v: %.2f GB, want %.2f GB", c.stage, got, c.want)
		}
	}
}

// Table 1, all 54 cells: per-device GB for 7.5B / 128B / 1T across DP
// degrees and stages.
func TestTable1AllCells(t *testing.T) {
	models := []int64{7_500_000_000, 128_000_000_000, 1_000_000_000_000}
	dps := []int{1, 4, 16, 64, 256, 1024}
	want := map[int64]map[int][3]float64{
		models[0]: {
			1: {120, 120, 120}, 4: {52.5, 41.3, 30}, 16: {35.6, 21.6, 7.5},
			64: {31.4, 16.6, 1.88}, 256: {30.4, 15.4, 0.47}, 1024: {30.1, 15.1, 0.12},
		},
		models[1]: {
			1: {2048, 2048, 2048}, 4: {896, 704, 512}, 16: {608, 368, 128},
			64: {536, 284, 32}, 256: {518, 263, 8}, 1024: {513, 257, 2},
		},
		models[2]: {
			1: {16000, 16000, 16000}, 4: {7000, 5500, 4000}, 16: {4750, 2875, 1000},
			64: {4187, 2218, 250}, 256: {4046, 2054, 62.5}, 1024: {4011, 2013, 15.6},
		},
	}
	stages := []Stage{StageOS, StageOSGrad, StageFull}
	for _, psi := range models {
		for _, nd := range dps {
			for si, st := range stages {
				got := perfmodel.ModelStateGB(psi, int(st), nd)
				// 1% relative, or 0.01 GB absolute for the sub-GB cells
				// the paper rounds to two decimals.
				if !approx(got, want[psi][nd][si], 0.01) && math.Abs(got-want[psi][nd][si]) > 0.01 {
					t.Errorf("Ψ=%d Nd=%d %v: got %.2f GB, want %.2f GB",
						psi, nd, st, got, want[psi][nd][si])
				}
			}
		}
	}
}

// Table 2, left half: max theoretical model size on a 32 GB budget with
// Nd=64, scaling linearly with MP.
func TestTable2Theoretical(t *testing.T) {
	const budget = 32 * perfmodel.GB
	rows := []struct {
		mp                         int
		baseline, pos, posg, posgp float64 // billions
	}{
		{1, 2, 7.6, 14.4, 128},
		{2, 4, 15.2, 28.8, 256},
		{4, 8, 30.4, 57.6, 512},
		{8, 16, 60.8, 115.2, 1024},
		{16, 32, 121.6, 230.4, 2048},
	}
	for _, r := range rows {
		checks := []struct {
			stage Stage
			want  float64
		}{
			{StageDDP, r.baseline}, {StageOS, r.pos}, {StageOSGrad, r.posg}, {StageFull, r.posgp},
		}
		for _, c := range checks {
			got := float64(perfmodel.MaxTheoreticalParams(budget, int(c.stage), 64, r.mp)) / 1e9
			if !approx(got, c.want, 0.01) {
				t.Errorf("MP=%d %v: %.1fB, want %.1fB", r.mp, c.stage, got, c.want)
			}
		}
	}
	// The headline: Pos+g+p at Nd=1024 fits >1T parameters (§5.4).
	if got := perfmodel.MaxTheoreticalParams(budget, int(StageFull), 1024, 1); got < 2_000_000_000_000 {
		t.Errorf("Pos+g+p @ Nd=1024: %.2fT, want ≥2T (32GB×1024/16B)", float64(got)/1e12)
	}
}

// modelStateBytes is perfmodel.ModelStateBytes keyed by Stage.
func modelStateBytes(psi int64, st Stage, nd int) float64 {
	return perfmodel.ModelStateBytes(psi, int(st), nd)
}

// memoryReduction returns the memory reduction factor versus baseline DP.
func memoryReduction(stage Stage, nd int) float64 {
	const psi = 1 << 30
	return modelStateBytes(psi, StageDDP, nd) / modelStateBytes(psi, stage, nd)
}

// Memory reduction factors: 4x (Pos), 8x (Pos+g), Nd (Pos+g+p) at large Nd.
func TestMemoryReductionFactors(t *testing.T) {
	if r := memoryReduction(StageOS, 1024); !approx(r, 4, 0.01) {
		t.Errorf("Pos reduction %v, want ≈4", r)
	}
	if r := memoryReduction(StageOSGrad, 1024); !approx(r, 8, 0.01) {
		t.Errorf("Pos+g reduction %v, want ≈8", r)
	}
	if r := memoryReduction(StageFull, 64); !approx(r, 64, 1e-9) {
		t.Errorf("Pos+g+p reduction %v, want exactly Nd=64", r)
	}
}

// Monotonicity properties of the planner.
func TestMemPlanProperties(t *testing.T) {
	f := func(psiRaw uint32, ndRaw uint16) bool {
		psi := int64(psiRaw)%int64(1e12) + 1e6
		nd := int(ndRaw)%1024 + 1
		prev := math.Inf(1)
		// Each deeper stage consumes no more memory.
		for _, st := range []Stage{StageDDP, StageOS, StageOSGrad, StageFull} {
			cur := modelStateBytes(psi, st, nd)
			if cur > prev+1e-6 {
				return false
			}
			prev = cur
		}
		// Larger Nd never increases partitioned-stage memory.
		if nd > 1 {
			for _, st := range []Stage{StageOS, StageOSGrad, StageFull} {
				if modelStateBytes(psi, st, nd) > modelStateBytes(psi, st, nd-1)+1e-6 {
					return false
				}
			}
		}
		// Baseline is exactly (2+2+K) = 16 bytes/param, in the trainer's
		// widths: fp16 parameters and gradients, and Adam's K.
		perParam := 2*tensor.BytesPerHalf + optimizer.AdamK
		return perParam == 16 && modelStateBytes(psi, StageDDP, nd) == float64(perParam)*float64(psi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Measured sizes (with residual states charged) must fall below theoretical
// and preserve the Table 2 ordering; the Pos measured value lands in the
// paper's measured band (6.2B at MP=1 vs 7.6B theoretical).
func TestMaxMeasuredParams(t *testing.T) {
	const budget = 32 * perfmodel.GB
	cfg := perfmodel.Config{MP: 1, DP: 64, MicroBatch: 8,
		ZeRO: perfmodel.ZeROConfig{Stage: int(StageOS), CB: true, MD: true}}
	meas := perfmodel.MaxMeasuredParams(budget, cfg)
	theo := perfmodel.MaxTheoreticalParams(budget, int(StageOS), 64, 1)
	if meas >= theo {
		t.Errorf("measured %.2fB must be below theoretical %.2fB", float64(meas)/1e9, float64(theo)/1e9)
	}
	if got := float64(meas) / 1e9; got < 5 || got > 7.6 {
		t.Errorf("Pos measured %.2fB, paper measured 6.2B (want 5-7.6B)", got)
	}
	// Baseline without ZeRO-R: fused buffers + fragmentation push the
	// measured size toward the paper's 1.3B (vs 2B theoretical).
	baseMeas := perfmodel.MaxMeasuredParams(budget, perfmodel.Config{MP: 1, DP: 64, MicroBatch: 8})
	if got := float64(baseMeas) / 1e9; got < 0.9 || got > 1.7 {
		t.Errorf("baseline measured %.2fB, paper measured 1.3B (want 0.9-1.7B)", got)
	}
}

func TestShapeForParams(t *testing.T) {
	for _, psi := range []int64{1_500_000_000, 8_000_000_000, 60_000_000_000, 170_000_000_000} {
		s := perfmodel.ShapeForParams(psi)
		if !approx(float64(s.Params()), float64(psi), 0.05) {
			t.Errorf("ShapeForParams(%d) built %d params (%.1f%% off)",
				psi, s.Params(), 100*math.Abs(float64(s.Params()-psi))/float64(psi))
		}
		if s.Layers < 1 || s.Hidden < 1024 {
			t.Errorf("degenerate shape %+v", s)
		}
	}
}

// Residual knobs must act in the right direction.
func TestResidualBytesKnobs(t *testing.T) {
	base := perfmodel.Config{Shape: perfmodel.ShapeForParams(40e9), MicroBatch: 16, MP: 16}
	pa := base
	pa.ZeRO.Pa = true
	cpu := pa
	cpu.ZeRO.PaCPU = true
	cb := base
	cb.ZeRO.CB = true
	rb := perfmodel.ResidualBytes(base)
	if perfmodel.ResidualBytes(pa) >= rb {
		t.Error("Pa must reduce residual memory")
	}
	if perfmodel.ResidualBytes(cpu) >= perfmodel.ResidualBytes(pa) {
		t.Error("Pa+cpu must reduce residual memory below Pa")
	}
	if perfmodel.ResidualBytes(cb) >= rb {
		t.Error("CB must reduce residual memory (constant vs 4Ψ buffers)")
	}
}

func TestStageString(t *testing.T) {
	names := map[Stage]string{StageDDP: "DP", StageOS: "Pos", StageOSGrad: "Pos+g", StageFull: "Pos+g+p"}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}
