package comm

import "fmt"

// Hierarchical (two-level) collectives, the NCCL-style algorithms clusters
// of multi-GPU nodes use: only 1/nodeSize of the buffer ever crosses the
// node uplink, which is why DP communication survives the node boundary
// while flat MP all-reduces do not (the effective-bandwidth model in
// internal/perfmodel's harmonic DP bandwidth). They are compositions of the ordinary
// group collectives over the two sub-communicators of a node Topology —
// there is no bespoke ring code here.
//
// For Ψ elements on M nodes of S ranks, per-rank traffic of one pass:
//
//	intra-node: Ψ·(S-1)/S        (recorded under the "hier-intra" group)
//	inter-node: (Ψ/S)·(M-1)/M    (recorded under the "hier-inter" group)
//
// and a hierarchical all-reduce is two passes, so its inter-node volume is
// 2(Ψ/S)(M-1)/M versus the flat ring's 2Ψ(N-1)/N — the cut the paper's
// trillion-parameter analysis (§2.3, §7) rests on. The split is measured:
// Stats.PerGroup["hier-intra"/"hier-inter"] counts elements and native
// dtype-accurate bytes per group.
//
// The reduce-scatter/all-gather forms take the same []Range ownership
// partition as the flat collectives (member i ends up owning parts[i], in
// group-local order), so a ZeRO trainer can swap them in bucket-for-bucket:
// the intra-node phase runs one reduce-scatter per node block with that
// block's slice of the partition, and the inter-node phase finishes (or
// seeds) the owned slices across same-slot ranks. Because each element's
// accumulation order depends only on its owner's (node, slot) coordinates,
// the result is independent of bucket framing — every schedule on the same
// topology is bitwise identical. Across *different* topologies the
// reduction tree differs, so sums agree only up to float reassociation.
//
// Like every collective, these run on whatever ordering domain their Comm
// is bound to — synchronously on the default domain, or asynchronously via
// the Stream.*Hierarchical methods with byte-accurate dtype accounting.

// Topology is a communicator's node layout: consecutive blocks of NodeSize
// members form one node. Intra connects the members of this rank's node;
// Inter connects the same-slot members across nodes.
type Topology struct {
	NodeSize int
	Nodes    int
	// Intra is this rank's intra-node group (consecutive members), with
	// traffic attributed to "hier-intra".
	Intra *Comm
	// Inter is this rank's inter-node group (same node-local slot across
	// nodes, stride NodeSize), with traffic attributed to "hier-inter".
	Inter *Comm

	// interScratch backs interParts so steady-state hierarchical ops don't
	// allocate a partition per bucket. Safe because a Topology, like the
	// Comm it came from, is used by one goroutine at a time and the slice
	// is consumed synchronously by the inter-phase collective.
	interScratch []Range
}

// topoKey identifies one cached topology: the node width plus the dtype and
// label of the view that built it (sub-communicators inherit both, and the
// byte accounting must match the buffers that flow through them).
type topoKey struct {
	nodeSize int
	dtype    DType
	label    string
}

// topoCache memoizes nodeTopology per communicator chain. Building a
// topology means deriving two sub-communicators (member lists, label maps)
// — cheap once, but not per collective: a bucketed hierarchical schedule
// issues hundreds of ops per step. The cache pointer is shared by
// same-group views (named/withDType) and dropped by Subgroup/Split, whose
// member sets differ; Comm handles are single-goroutine, so no lock.
type topoCache struct {
	m map[topoKey]*Topology
}

// nodeTopology carves the communicator into nodes of nodeSize consecutive
// members and returns this rank's intra-node and inter-node groups. It is
// communication-free; every member must construct the same topology before
// collectives on it pair up. The group size must be a multiple of nodeSize
// (ErrTopology otherwise).
func (c *Comm) nodeTopology(nodeSize int) (*Topology, error) {
	if err := CheckNodeSize(c.Size(), nodeSize); err != nil {
		return nil, err
	}
	key := topoKey{nodeSize: nodeSize, dtype: c.dtype, label: c.label}
	if c.topos != nil {
		if t := c.topos.m[key]; t != nil {
			return t, nil
		}
	}
	node, slot := c.pos/nodeSize, c.pos%nodeSize
	nodes := c.Size() / nodeSize
	intraMembers := make([]int, nodeSize)
	for i := range intraMembers {
		intraMembers[i] = node*nodeSize + i
	}
	interMembers := make([]int, nodes)
	for i := range interMembers {
		interMembers[i] = i*nodeSize + slot
	}
	intra, err := c.Subgroup(intraMembers)
	if err != nil {
		return nil, err
	}
	inter, err := c.Subgroup(interMembers)
	if err != nil {
		return nil, err
	}
	topo := &Topology{
		NodeSize: nodeSize,
		Nodes:    nodes,
		Intra:    intra.named("hier-intra"),
		Inter:    inter.named("hier-inter"),
	}
	if c.topos != nil {
		if c.topos.m == nil {
			c.topos.m = make(map[topoKey]*Topology)
		}
		c.topos.m[key] = topo
	}
	return topo, nil
}

// interParts extracts the ownership ranges of this rank's inter-node group:
// the slices owned by the same node-local slot in every node. The returned
// slice aliases the topology's scratch and is valid until the next call.
func (t *Topology) interParts(parts []Range) []Range {
	slot := t.Intra.Rank()
	if cap(t.interScratch) < t.Nodes {
		t.interScratch = make([]Range, t.Nodes)
	}
	out := t.interScratch[:t.Nodes]
	for m := range out {
		out[m] = parts[m*t.NodeSize+slot]
	}
	return out
}

// checkHierParts validates the partition/topology pair shared by the
// hierarchical reduce-scatter and all-gather.
func (c *Comm) checkHierParts(parts []Range, nodeSize int) error {
	if len(parts) != c.Size() {
		return fmt.Errorf("%w: partition count %d != group size %d", ErrGroup, len(parts), c.Size())
	}
	return CheckNodeSize(c.Size(), nodeSize)
}

// ReduceScatterHierarchical reduces b across the group in two levels so
// member i ends up owning the fully reduced parts[i], like ReduceScatter:
// each node block runs an intra-node reduce-scatter of its slice of the
// partition, then the inter-node groups finish the owned slices across
// nodes. Only (|b|/nodeSize)·(M-1)/M elements per rank cross nodes.
// Degenerate layouts (one node, or one rank per node) fall back to the
// flat ring.
func (c *Comm) ReduceScatterHierarchical(b Buffer, parts []Range, nodeSize int) error {
	if err := c.checkHierParts(parts, nodeSize); err != nil {
		return err
	}
	v := c.withDType(b.DType)
	n := c.Size()
	x := b.floats()
	if n == 1 || nodeSize == 1 || nodeSize == n {
		v.ReduceScatter(x, parts)
		return nil
	}
	topo, err := v.nodeTopology(nodeSize)
	if err != nil {
		return err
	}
	// Intra-node: concentrate each node's partial sums on the member that
	// will own them, one node block of the partition at a time.
	for m := 0; m < topo.Nodes; m++ {
		topo.Intra.ReduceScatter(x, parts[m*nodeSize:(m+1)*nodeSize])
	}
	// Inter-node: finish the reduction of the owned slices across the
	// same-slot ranks of every node.
	topo.Inter.ReduceScatter(x, topo.interParts(parts))
	return nil
}

// AllGatherHierarchical is the mirror of ReduceScatterHierarchical: member
// i contributes parts[i] (already in place) and every member ends up with
// every range, with only (|b|/nodeSize)·(M-1)/M elements per rank crossing
// nodes. Inter-node groups exchange the owned slices first; each node then
// redistributes internally, block by block. It moves whichever payload b
// holds (see Buffer), and like the reduce-scatter falls back to the flat ring
// on degenerate layouts — nodeSize 1 is the typed flat all-gather.
func (c *Comm) AllGatherHierarchical(b Buffer, parts []Range, nodeSize int) error {
	if err := c.checkHierParts(parts, nodeSize); err != nil {
		return err
	}
	v := c.withDType(b.DType)
	n := c.Size()
	if n == 1 || nodeSize == 1 || nodeSize == n {
		v.allGather(b, parts)
		return nil
	}
	topo, err := v.nodeTopology(nodeSize)
	if err != nil {
		return err
	}
	topo.Inter.allGather(b, topo.interParts(parts))
	for m := 0; m < topo.Nodes; m++ {
		topo.Intra.allGather(b, parts[m*nodeSize:(m+1)*nodeSize])
	}
	return nil
}

// AllReduceHierarchical sums b elementwise across the group, in place,
// using the two-level algorithm with the given node width: a hierarchical
// reduce-scatter over the canonical partition followed by the matching
// hierarchical all-gather. The group size must be a multiple of nodeSize.
func (c *Comm) AllReduceHierarchical(b Buffer, nodeSize int) error {
	parts := Partition(len(b.floats()), c.Size())
	if err := c.ReduceScatterHierarchical(b, parts, nodeSize); err != nil {
		return err
	}
	return c.AllGatherHierarchical(b, parts, nodeSize)
}
