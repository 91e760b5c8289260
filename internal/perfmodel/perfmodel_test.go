package perfmodel

import (
	"math"
	"testing"
)

func TestParamsCounts(t *testing.T) {
	// Parameter counts for the paper's configurations (Table 4 / Table 5)
	// must land on the advertised model sizes.
	cases := []struct {
		name   string
		shape  Shape
		wantB  float64 // billions
		within float64 // relative tolerance
	}{
		{"GPT-2 1.5B", GPT2Like(48, 1600, 16), 1.5, 0.07},
		{"8B", GPT2Like(72, 3072, 24), 8, 0.07},
		{"40B", GPT2Like(88, 6144, 32), 40, 0.07},
		{"60B", GPT2Like(75, 8192, 32), 60, 0.07},
		{"100B", GPT2Like(125, 8192, 64), 100, 0.07},
		{"170B", GPT2Like(212, 8192, 64), 170, 0.07},
		{"13B", GPT2Like(62, 4096, 32), 13, 0.07},
	}
	for _, c := range cases {
		got := float64(c.shape.Params()) / 1e9
		if math.Abs(got-c.wantB)/c.wantB > c.within {
			t.Errorf("%s: params %.2fB, want %.1fB ±%.0f%%", c.name, got, c.wantB, c.within*100)
		}
	}
}

func TestFlopsMonotonicInBatchAndSize(t *testing.T) {
	s := GPT2Like(48, 1600, 16)
	if s.flopsPerStep(2) <= s.flopsPerStep(1) {
		t.Error("flops must grow with batch")
	}
	big := GPT2Like(125, 8192, 64)
	if big.flopsPerStep(1) <= s.flopsPerStep(1) {
		t.Error("flops must grow with model size")
	}
	// Linearity in batch.
	if r := s.flopsPerStep(8) / s.flopsPerStep(4); math.Abs(r-2) > 1e-9 {
		t.Errorf("flops should be linear in batch, ratio %v", r)
	}
}

func TestEfficiencyShape(t *testing.T) {
	hw := DGX2()
	// Larger batch → higher efficiency (Figure 3's driver).
	if hw.efficiency(8192, 16, 64, 1024) <= hw.efficiency(8192, 16, 4, 1024) {
		t.Error("efficiency must grow with batch")
	}
	// Higher MP → lower efficiency (granularity insight §4.1a).
	if hw.efficiency(8192, 128, 16, 1024) >= hw.efficiency(8192, 16, 16, 1024) {
		t.Error("efficiency must fall with MP degree")
	}
	// Never exceeds ceiling.
	if e := hw.efficiency(1<<20, 1, 1<<20, 1024); e >= hw.MaxEfficiency {
		t.Errorf("efficiency %v must stay below ceiling %v", e, hw.MaxEfficiency)
	}
}

func TestBandwidthCliff(t *testing.T) {
	hw := DGX2()
	if hw.mpBandwidth(16) != hw.IntraNodeBW {
		t.Error("MP=16 fits a DGX-2 node, should see NVSwitch bandwidth")
	}
	if hw.mpBandwidth(32) != hw.InterNodeBWPerGPU {
		t.Error("MP=32 spans nodes, should see InfiniBand share")
	}
	if hw.mpBandwidth(16) <= 10*hw.mpBandwidth(32) {
		t.Error("the intra/inter cliff should be at least 10x (300 vs 12.5 GB/s per link)")
	}
}

// The paper's headline: ZeRO-100B sustains ~15 Pflops aggregate (~38
// TFlops/GPU, >30% of peak) on 400 GPUs for the 100B model (Table 5 row:
// MP=16, batch 32).
func TestHundredBillionHeadline(t *testing.T) {
	hw := DGX2()
	cfg := Config{
		Shape:      GPT2Like(125, 8192, 64),
		MP:         16,
		DP:         25,
		MicroBatch: 32,
		ZeRO:       ZeROConfig{Stage: 2, Pa: true},
	}
	b := Estimate(hw, cfg)
	if b.TFlopsPerGPU < 30 || b.TFlopsPerGPU > 55 {
		t.Errorf("100B ZeRO throughput %.1f TFlops/GPU, want ~38 (30%% of peak)", b.TFlopsPerGPU)
	}
	if agg := aggregatePetaflops(hw, cfg); agg < 12 || agg > 22 {
		t.Errorf("aggregate %.1f Pflops, want ~15", agg)
	}
}

// Megatron baseline collapse: the same 40B-class model run with MP across
// two nodes achieves <5% of hardware peak (§1: "about 5Tflops per V100").
func TestBaselineCrossNodeCollapse(t *testing.T) {
	hw := DGX2()
	inNode := Estimate(hw, Config{
		Shape: GPT2Like(88, 6144, 32), MP: 16, DP: 4, MicroBatch: 8,
	})
	crossNode := Estimate(hw, Config{
		Shape: GPT2Like(88, 6144, 32), MP: 32, DP: 2, MicroBatch: 8,
	})
	if crossNode.TFlopsPerGPU > 0.07*hw.PeakFlopsPerGPU/1e12 {
		t.Errorf("cross-node MP = %.1f TFlops/GPU, want <5%% of peak", crossNode.TFlopsPerGPU)
	}
	if inNode.TFlopsPerGPU < 3*crossNode.TFlopsPerGPU {
		t.Errorf("in-node (%.1f) should be >>3x cross-node (%.1f)",
			inNode.TFlopsPerGPU, crossNode.TFlopsPerGPU)
	}
}

// Superlinearity precondition: per-GPU throughput at the larger batch the
// added memory affords must beat the small-batch value (Figure 3).
func TestPerGPUThroughputGrowsWithBatch(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(75, 8192, 32) // 60B
	small := Estimate(hw, Config{Shape: shape, MP: 16, DP: 4, MicroBatch: 16, ZeRO: ZeROConfig{Stage: 2}})
	large := Estimate(hw, Config{Shape: shape, MP: 16, DP: 25, MicroBatch: 64, ZeRO: ZeROConfig{Stage: 2}})
	if large.TFlopsPerGPU <= small.TFlopsPerGPU*1.10 {
		t.Errorf("per-GPU throughput should grow markedly with batch: %.1f -> %.1f",
			small.TFlopsPerGPU, large.TFlopsPerGPU)
	}
}

// Stage 3 costs 1.5x the DP volume of stage 2 (§7.2.2).
func TestStage3VolumeRatio(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(62, 4096, 32)
	base := Config{Shape: shape, MP: 1, DP: 64, MicroBatch: 4, ZeRO: ZeROConfig{Stage: 2}}
	s3 := base
	s3.ZeRO.Stage = 3
	b2 := Estimate(hw, base)
	b3 := Estimate(hw, s3)
	if r := b3.DPCommSec / b2.DPCommSec; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("stage3/stage2 DP time ratio %v, want exactly 1.5", r)
	}
}

// Pa adds less than 10% to MP communication (§8).
func TestPaOverheadUnderTenPercent(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(125, 8192, 64)
	base := Config{Shape: shape, MP: 16, DP: 25, MicroBatch: 32, ZeRO: ZeROConfig{Stage: 2}}
	withPa := base
	withPa.ZeRO.Pa = true
	b0 := Estimate(hw, base)
	b1 := Estimate(hw, withPa)
	overhead := (b1.MPCommSec - b0.MPCommSec) / b0.MPCommSec
	if overhead <= 0 || overhead > 0.10 {
		t.Errorf("Pa MP-comm overhead %.1f%%, want (0, 10%%]", overhead*100)
	}
}

// Pa+cpu adds exposed PCIe time at small batch but the step must remain
// finite and the offload cost bounded.
func TestPaCPUCost(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(75, 8192, 32)
	cfg := Config{Shape: shape, MP: 16, DP: 8, MicroBatch: 2,
		ZeRO: ZeROConfig{Stage: 2, Pa: true, PaCPU: true}}
	b := Estimate(hw, cfg)
	noOff := cfg
	noOff.ZeRO.PaCPU = false
	b0 := Estimate(hw, noOff)
	if b.StepSec <= b0.StepSec {
		t.Error("Pa+cpu should cost some step time (DMA drag + exposed PCIe)")
	}
	if b.OffloadSec > b.StepSec {
		t.Error("offload time exceeds the step it is part of")
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := Config{MP: 16, DP: 25, MicroBatch: 32}
	if cfg.GPUs() != 400 {
		t.Errorf("GPUs() = %d, want 400", cfg.GPUs())
	}
	if cfg.TotalBatch() != 800 {
		t.Errorf("TotalBatch() = %d, want 800", cfg.TotalBatch())
	}
}

func TestEstimatePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Estimate(DGX2(), Config{Shape: GPT2Like(2, 64, 2), MP: 0, DP: 1, MicroBatch: 1})
}
