package perfmodel

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// The dpBandwidth model is validated against the *measured* intra/inter
// split of the runtime's hierarchical all-reduce: run the real two-level
// collective on an in-process world, read the PerGroup wire counters, and
// check that (a) the predicted split matches the measurement exactly and
// (b) the effective bandwidth implied by the measured split equals the
// closed-form hierarchicalDPBandwidth.
func TestDPBandwidthAgainstMeasuredSplit(t *testing.T) {
	const psi = 1 << 12
	const nodeSize, nodes = 4, 2
	const n = nodeSize * nodes
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		nodes, err := c.Nodes(nodeSize)
		if err != nil {
			t.Error(err)
			return
		}
		nodes.AllReduce(make([]float32, psi))
	})
	st := w.Stats(0)
	measIntra := float64(st.PerGroup["hier-intra"].Elems)
	measInter := float64(st.PerGroup["hier-inter"].Elems)

	predIntra, predInter := HierarchicalSplit(psi, nodeSize, nodes)
	// An all-reduce is two passes (reduce-scatter + all-gather).
	if 2*predIntra != measIntra || 2*predInter != measInter {
		t.Fatalf("predicted split (2×%v, 2×%v) != measured (%v, %v)",
			predIntra, predInter, measIntra, measInter)
	}

	hw := DGX2()
	fromMeasured := hw.splitDPBandwidth(measIntra, measInter)
	closedForm := hw.hierarchicalDPBandwidth(nodeSize, nodes)
	if rel := math.Abs(fromMeasured-closedForm) / closedForm; rel > 1e-9 {
		t.Errorf("bandwidth from measured split %.3g != closed form %.3g (rel %g)",
			fromMeasured, closedForm, rel)
	}
}

// At the paper's scale (16-GPU nodes, 25 nodes) the exact two-level form
// converges to dpBandwidth's harmonic approximation — the number the step
// model uses — to within a few percent; at small node counts the exact
// form is meaningfully faster (less of the buffer crosses nodes), which is
// why the experiments report the exact prediction next to the measurement.
func TestHierarchicalDPBandwidthConvergesToHarmonic(t *testing.T) {
	hw := DGX2()
	exact := hw.hierarchicalDPBandwidth(16, 25)
	harmonic := hw.dpBandwidth(1, 400)
	if rel := math.Abs(exact-harmonic) / harmonic; rel > 0.12 {
		t.Errorf("exact %v vs harmonic %v: rel %g, want <12%% at DGX-2 scale", exact, harmonic, rel)
	}
	if exact <= harmonic {
		t.Errorf("exact form %v should exceed the harmonic lower bound %v", exact, harmonic)
	}
	// Degenerate layouts collapse to NVSwitch bandwidth.
	if hw.hierarchicalDPBandwidth(1, 1) != hw.IntraNodeBW {
		t.Error("single-GPU layout must return intra-node bandwidth")
	}
}

// The prefetch window model: the one-group-ahead pipeline hides the
// stage-3 gathers under the assumed gatherOverlapWindow of the compute, and
// without Prefetch they are fully exposed.
func TestPrefetchWindowDepthModel(t *testing.T) {
	// Use a bandwidth-starved cluster so the gathers cannot fully hide
	// under the assumed window (on DGX-2 they do, which is the §7.2.2
	// design point).
	slow := DGX2()
	slow.IntraNodeBW = 2e9
	slow.InterNodeBWPerGPU = 0.5e9
	mk := func(z ZeROConfig) Breakdown {
		return Estimate(slow, Config{Shape: GPT2Like(48, 1600, 16), MP: 1, DP: 64, MicroBatch: 1, ZeRO: z})
	}
	pipelined, exposed := mk(ZeROConfig{Stage: 3, Prefetch: true}), mk(ZeROConfig{Stage: 3})
	// Tolerance: a platform may fuse the multiply-subtract on one side only.
	want := pipelined.GatherSec - gatherOverlapWindow*pipelined.ComputeSec
	if want <= 0 || math.Abs(pipelined.ExposedGatherSec-want) > 1e-12*want {
		t.Errorf("prefetched exposed gather %v, want GatherSec − %v·ComputeSec = %v > 0",
			pipelined.ExposedGatherSec, gatherOverlapWindow, want)
	}
	if exposed.ExposedGatherSec != exposed.GatherSec {
		t.Errorf("unprefetched exposed gather %v, want all of GatherSec %v", exposed.ExposedGatherSec, exposed.GatherSec)
	}
}
