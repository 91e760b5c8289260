// Package perfmodel is the analytic model standing in for the paper's
// 400×V100 testbed (25 DGX-2 nodes, 800 Gbps inter-node): every closed
// form of the paper, memory (§3.1 Figure 1, §5, Tables 1-2, the §3.2
// residual states) and time (§10), over one GPT-2-like Shape.
//
// The model estimates per-step time as compute + exposed communication for a
// given (model shape, MP degree, DP degree, micro-batch, ZeRO configuration)
// and reports TFlops/GPU, the metric of Figures 2, 3, 4 and 8. Absolute
// numbers depend on calibration constants documented below, but the figure
// *shapes* the paper reports fall out of first-order hardware ratios the
// model encodes:
//
//   - Megatron MP collapses once the MP group crosses a node boundary
//     (NVSwitch 300 GB/s/link → InfiniBand 12.5 GB/s/link, §10.2);
//   - ZeRO-DP's communication stays on the slow inter-node links but is
//     amortized over the whole step and grows with Ψ, not with MP volume;
//   - larger per-GPU batches raise arithmetic intensity and therefore
//     efficiency — the superlinearity driver of Figure 3 (§10.3).
//
// Surface: DGX2 and Hardware; GPT2Like, Shape and ShapeForParams; Config
// and ZeROConfig; Estimate returning a Breakdown, and HierarchicalSplit
// (time); ModelStateBytes, ModelStateGB, MaxTheoreticalParams,
// ResidualBytes, DeviceBytes and MaxMeasuredParams (memory, memory.go).
// A stage is ZeROConfig.Stage's int 0-3, so the package imports nothing of
// the trainer. Imported by internal/experiments, internal/engine
// (Engine.ModelStateBytes) and cmd/zerotrain.
package perfmodel

// Hardware describes one cluster profile. All bandwidths are effective
// per-GPU collective bandwidths in bytes/second.
type Hardware struct {
	// PeakFlopsPerGPU is the fp16 tensor-core peak (V100: 125 TFlops).
	PeakFlopsPerGPU float64
	// GPUMemory is the per-device memory in bytes (V100: 32 GB).
	GPUMemory int64
	// GPUsPerNode is the node width (DGX-2: 16).
	GPUsPerNode int
	// IntraNodeBW is the per-GPU collective bandwidth inside a node
	// (NVSwitch; the paper quotes 300 GB/s per link, ~150 GB/s effective
	// for ring collectives).
	IntraNodeBW float64
	// InterNodeBWPerGPU is each GPU's share of the node uplink
	// (800 Gbps = 100 GB/s per node / 16 GPUs = 6.25 GB/s).
	InterNodeBWPerGPU float64
	// PCIeBW is the host-device bandwidth used by Pa+cpu offload.
	PCIeBW float64
	// MaxEfficiency is the fraction of peak a perfectly-shaped kernel
	// stream achieves end to end (kernel launch overheads, non-GEMM ops).
	MaxEfficiency float64
}

// DGX2 returns the paper's testbed profile: 25 DGX-2 nodes of 16 V100-32GB,
// 800 Gbps inter-node.
func DGX2() Hardware {
	return Hardware{
		PeakFlopsPerGPU:   125e12,
		GPUMemory:         32 << 30,
		GPUsPerNode:       16,
		IntraNodeBW:       150e9,
		InterNodeBWPerGPU: 6.25e9,
		PCIeBW:            12e9,
		MaxEfficiency:     0.52,
	}
}

// Calibration constants for the efficiency model. granHalf is the
// column-parallel output width (4h/MP) at which GEMM efficiency reaches half
// of its ceiling; tokensHalf is the per-replica token count with the same
// role for batch-driven arithmetic intensity.
const (
	granHalf   = 780.0
	tokensHalf = 4000.0
)

// efficiency returns the fraction of peak flops achieved for GEMMs of a
// transformer with hidden size h split MP ways, at batch·seq tokens per
// replica. Both factors saturate: big weight shards and big batches
// approach MaxEfficiency, tiny shards (high MP) and tiny batches starve the
// device — the granularity insight of §4.1(a).
func (hw Hardware) efficiency(hidden, mp, batch, seq int) float64 {
	shard := 4 * float64(hidden) / float64(mp)
	gran := shard / (shard + granHalf)
	tokens := float64(batch) * float64(seq)
	util := tokens / (tokens + tokensHalf)
	return hw.MaxEfficiency * gran * util
}

// mpBandwidth returns the effective per-GPU bandwidth for a model-parallel
// group of the given degree: NVSwitch while the group fits in one node, the
// inter-node share once it spans nodes.
func (hw Hardware) mpBandwidth(mp int) float64 {
	if mp <= hw.GPUsPerNode {
		return hw.IntraNodeBW
	}
	return hw.InterNodeBWPerGPU
}

// dpBandwidth returns the effective per-GPU bandwidth for the data-parallel
// group. Cross-node DP collectives are hierarchical (NCCL-style): an
// intra-node reduce-scatter concentrates each GPU's share, then only Ψ/16
// per GPU crosses the node uplink. The effective bandwidth is the harmonic
// combination of the intra-node stage and the full node uplink,
// 1/(1/intra + 1/(interPerGPU·gpusPerNode)) ≈ 60 GB/s on the DGX-2 profile
// — which is why DP communication, unlike flat MP all-reduces, survives the
// node boundary (insight §4.1a). It is the large-(S,M) limit of
// hierarchicalDPBandwidth; the runtime's measured intra/inter split
// validates both (see splitDPBandwidth and the perfmodel tests).
func (hw Hardware) dpBandwidth(mp, dp int) float64 {
	if mp*dp <= hw.GPUsPerNode {
		return hw.IntraNodeBW
	}
	nodeUplink := hw.InterNodeBWPerGPU * float64(hw.GPUsPerNode)
	return 1 / (1/hw.IntraNodeBW + 1/nodeUplink)
}

// HierarchicalSplit predicts the per-rank traffic split of one two-level
// collective pass (a hierarchical reduce-scatter or all-gather; an
// all-reduce is two passes) over psi elements on M nodes of S ranks:
//
//	intra = Ψ·(S-1)/S          inter = (Ψ/S)·(M-1)/M
//
// These are exactly the element counts internal/comm records under the
// "hier-intra"/"hier-inter" PerGroup keys — the experiments compare this
// prediction against the wire measurement.
func HierarchicalSplit(psi int64, nodeSize, nodes int) (intra, inter float64) {
	s, m := float64(nodeSize), float64(nodes)
	intra = float64(psi) * (s - 1) / s
	inter = float64(psi) / s * (m - 1) / m
	return intra, inter
}

// splitDPBandwidth converts a *measured* per-rank (intra, inter) traffic
// split — e.g. the PerGroup byte counters of a real run — into the
// effective collective bandwidth it implies on this hardware profile:
// total volume over the serialized time of the intra phase (NVSwitch) and
// the inter phase (this GPU's uplink share).
func (hw Hardware) splitDPBandwidth(intra, inter float64) float64 {
	if intra+inter == 0 {
		return hw.IntraNodeBW
	}
	return (intra + inter) / (intra/hw.IntraNodeBW + inter/hw.InterNodeBWPerGPU)
}

// hierarchicalDPBandwidth is the exact-form effective DP bandwidth for M
// nodes of S ranks: splitDPBandwidth applied to the predicted two-level
// split. As S and M grow it converges to dpBandwidth's harmonic limit
// (intra share → 1, inter share → 1/S with S·interPerGPU = the node
// uplink).
func (hw Hardware) hierarchicalDPBandwidth(nodeSize, nodes int) float64 {
	if nodeSize*nodes <= 1 {
		return hw.IntraNodeBW
	}
	intra, inter := HierarchicalSplit(1<<30, nodeSize, nodes)
	return hw.splitDPBandwidth(intra, inter)
}
