package perfmodel

import (
	"math"
	"testing"
)

// The hierarchical DP bandwidth is the harmonic combination of NVSwitch and
// the node uplink: 1/(1/150 + 1/100) GB/s = 60 GB/s on the DGX-2 profile.
func TestDPBandwidthHierarchicalValue(t *testing.T) {
	hw := DGX2()
	got := hw.dpBandwidth(16, 25)
	want := 1 / (1/hw.IntraNodeBW + 1/(hw.InterNodeBWPerGPU*float64(hw.GPUsPerNode)))
	if math.Abs(got-want) > 1 {
		t.Errorf("dpBandwidth = %v, want %v", got, want)
	}
	if math.Abs(got-60e9) > 1e9 {
		t.Errorf("dpBandwidth = %.1f GB/s, want ≈60", got/1e9)
	}
	// In-node DP sees NVSwitch.
	if hw.dpBandwidth(2, 4) != hw.IntraNodeBW {
		t.Error("small jobs should stay on NVSwitch")
	}
}

func TestActivationAccountingFootnote3(t *testing.T) {
	// Footnote 3: total activations ≈ 12 × hidden × batch × seq × layers.
	// For the 1.5B GPT-2 (48 layers, h=1600, seq 1K, batch 32) that is
	// ~60 GB in fp16 — the paper's §3.2 number.
	s := GPT2Like(48, 1600, 16)
	perSample := s.activationElemsPerSample()
	totalGB := float64(perSample) * 32 * 2 / 1e9
	if totalGB < 55 || totalGB > 70 {
		t.Errorf("1.5B batch-32 activations = %.1f GB, paper says ~60 GB", totalGB)
	}
	// Checkpointing cuts it to the per-layer inputs: ~1/12.
	ckpt := s.checkpointElemsPerSample()
	if r := float64(perSample) / float64(ckpt); math.Abs(r-12) > 1e-9 {
		t.Errorf("activation/checkpoint ratio %v, want 12", r)
	}
}

// Estimate is monotone in the obvious directions: more batch → more
// absolute step time but never lower throughput at fixed shape/parallelism
// (within the saturating-efficiency model).
func TestEstimateMonotonicity(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(75, 8192, 32)
	prevStep := 0.0
	prevTF := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
		e := Estimate(hw, Config{Shape: shape, MP: 16, DP: 8, MicroBatch: b,
			ZeRO: ZeROConfig{Stage: 2}})
		if e.StepSec <= prevStep {
			t.Errorf("step time must grow with batch: b=%d %v <= %v", b, e.StepSec, prevStep)
		}
		if e.TFlopsPerGPU < prevTF {
			t.Errorf("throughput must not fall with batch: b=%d %v < %v", b, e.TFlopsPerGPU, prevTF)
		}
		prevStep, prevTF = e.StepSec, e.TFlopsPerGPU
	}
}

// Stage-3 parameter-gather accounting: GatherSec is exactly the third Ψ
// (half the gradient share), Prefetch hides part of it, and the knob does
// nothing at stage 2 or under SyncComm.
func TestPrefetchHidesGatherTime(t *testing.T) {
	hw := DGX2()
	shape := GPT2Like(62, 4096, 32)
	base := Config{Shape: shape, MP: 1, DP: 64, MicroBatch: 4, ZeRO: ZeROConfig{Stage: 3}}

	syncGather := Estimate(hw, base)
	if syncGather.GatherSec <= 0 {
		t.Fatal("stage 3 must report parameter-gather time")
	}
	if r := syncGather.GatherSec / (syncGather.DPCommSec - syncGather.GatherSec); math.Abs(r-0.5) > 1e-9 {
		t.Errorf("gather/grad time ratio %v, want 0.5 (Ψ vs 2Ψ)", r)
	}
	if syncGather.ExposedGatherSec != syncGather.GatherSec {
		t.Error("without Prefetch the whole gather must be exposed (synchronous schedule)")
	}

	pre := base
	pre.ZeRO.Prefetch = true
	withPrefetch := Estimate(hw, pre)
	if withPrefetch.ExposedGatherSec >= syncGather.ExposedGatherSec {
		t.Errorf("Prefetch must reduce exposed gather time: %v >= %v",
			withPrefetch.ExposedGatherSec, syncGather.ExposedGatherSec)
	}
	if withPrefetch.StepSec >= syncGather.StepSec {
		t.Errorf("Prefetch must reduce step time: %v >= %v", withPrefetch.StepSec, syncGather.StepSec)
	}
	if withPrefetch.DPCommSec != syncGather.DPCommSec {
		t.Error("Prefetch moves the same volume; only exposure changes")
	}

	s2 := base
	s2.ZeRO.Stage = 2
	s2pre := s2
	s2pre.ZeRO.Prefetch = true
	if Estimate(hw, s2).StepSec != Estimate(hw, s2pre).StepSec {
		t.Error("Prefetch must be a no-op at stage 2 (no parameter gathers)")
	}
	if Estimate(hw, s2).GatherSec != 0 {
		t.Error("stages 0-2 have no gather share")
	}

	allSync := pre
	allSync.ZeRO.SyncComm = true
	if e := Estimate(hw, allSync); e.ExposedGatherSec != e.GatherSec {
		t.Error("SyncComm must expose the gathers even with Prefetch set")
	}
}

// The breakdown must be internally consistent.
func TestBreakdownConsistency(t *testing.T) {
	hw := DGX2()
	e := Estimate(hw, Config{Shape: GPT2Like(125, 8192, 64), MP: 16, DP: 25,
		MicroBatch: 32, ZeRO: ZeROConfig{Stage: 2, Pa: true, PaCPU: true}})
	sum := e.ComputeSec + e.MPCommSec + e.ExposedDPSec + e.OffloadSec
	if math.Abs(sum-e.StepSec) > 1e-9 {
		t.Errorf("StepSec %v != sum of parts %v", e.StepSec, sum)
	}
	if e.ExposedDPSec > e.DPCommSec {
		t.Error("exposed DP time cannot exceed total DP time")
	}
	if e.ExposedGatherSec > e.ExposedDPSec || e.GatherSec > e.DPCommSec {
		t.Error("gather shares cannot exceed their DP totals")
	}
	if e.TFlopsPerGPU <= 0 || e.FlopsPerGPU <= 0 {
		t.Error("non-positive throughput")
	}
}
