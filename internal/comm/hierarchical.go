package comm

// Hierarchical (two-level) collectives, the NCCL-style algorithms clusters
// of multi-GPU nodes use: only 1/S of the buffer ever crosses the node
// uplink, which is why DP communication survives the node boundary while
// flat MP all-reduces do not (the effective-bandwidth model in
// internal/perfmodel's harmonic DP bandwidth).
//
// The route belongs to the communicator, not to the call: Nodes returns a
// view laid out as nodes of S consecutive members, and on that view — and
// on every stream of a Scheduler built over it — ReduceScatter, AllGather
// and AllReduce run two-level. They are compositions of the ordinary ring
// collectives over the view's two sub-communicators; there is no bespoke
// ring code here. Every other collective (Broadcast, Gather, Barrier, the
// Split exchange) and every Subgroup of a laid-out view stays flat.
//
// For Ψ elements on M nodes of S ranks, per-rank traffic of one pass:
//
//	intra-node: Ψ·(S-1)/S        (recorded under the "hier-intra" group)
//	inter-node: (Ψ/S)·(M-1)/M    (recorded under the "hier-inter" group)
//
// and a two-level all-reduce is two passes, so its inter-node volume is
// 2(Ψ/S)(M-1)/M versus the flat ring's 2Ψ(N-1)/N — the cut the paper's
// trillion-parameter analysis (§2.3, §7) rests on. The split is measured:
// Stats.PerGroup["hier-intra"/"hier-inter"] counts elements and native
// dtype-accurate bytes per group.
//
// The reduce-scatter and all-gather take the same []Range ownership
// partition as the flat ring (member i ends up owning parts[i], in
// group-local order), so a ZeRO trainer's buckets run unchanged on a
// laid-out view: the intra-node phase runs one reduce-scatter per node
// block with that block's slice of the partition, and the inter-node phase
// finishes (or seeds) the owned slices across same-slot ranks. Because each
// element's accumulation order depends only on its owner's (node, slot)
// coordinates, the result is independent of bucket framing — every schedule
// on the same layout is bitwise identical. Across *different* layouts the
// reduction tree differs, so sums agree only up to float reassociation.

// nodeLayout is a laid-out view's split into nodes of size consecutive
// members. intra connects the members of this rank's node; inter connects
// the same-slot members across nodes (stride size). Both are indexed by
// DType, so an F16 view accounts 2 B/elem without deriving a view per op.
type nodeLayout struct {
	size, count  int // S ranks per node, M nodes
	intra, inter [2]*Comm

	// interScratch backs interParts so steady-state ops don't allocate a
	// partition per bucket. Safe because a view, like every Comm, is used
	// by one goroutine at a time and the slice is consumed synchronously
	// by the inter-node phase.
	interScratch []Range
}

// Nodes returns a view of the communicator laid out as nodes of size
// consecutive members, whose ReduceScatter, AllGather and AllReduce run
// two-level. It is communication-free; every member must lay out the same
// way before collectives on it pair up. A size that does not tile the
// group returns ErrTopology. The flat layouts — one rank per node, or one
// node — return a flat view (c itself when c is flat).
func (c *Comm) Nodes(size int) (*Comm, error) {
	if err := CheckNodeSize(c.Size(), size); err != nil {
		return nil, err
	}
	cp := *c
	if size == 1 || size == c.Size() {
		if c.nodes == nil {
			return c, nil
		}
		cp.nodes = nil
		return &cp, nil
	}
	cp.nodes = cp.layOut(size)
	return &cp, nil
}

// layOut builds this rank's intra- and inter-node sub-communicators on the
// view's ordering domain.
func (c *Comm) layOut(size int) *nodeLayout {
	l := &nodeLayout{size: size, count: c.Size() / size}
	node, slot := c.pos/size, c.pos%size
	intra := make([]int, size)
	for i := range intra {
		intra[i] = node*size + i
	}
	inter := make([]int, l.count)
	for i := range inter {
		inter[i] = i*size + slot
	}
	l.intra = c.levelViews(intra, "hier-intra")
	l.inter = c.levelViews(inter, "hier-inter")
	return l
}

// levelViews derives one level's sub-communicator, labeled for the
// PerGroup split, in both wire dtypes.
func (c *Comm) levelViews(members []int, label string) [2]*Comm {
	g, err := c.Subgroup(members)
	if err != nil {
		panic(err) // unreachable: Nodes validated the layout
	}
	g = g.named(label)
	return [2]*Comm{F32: g.withDType(F32), F16: g.withDType(F16)}
}

// interParts extracts the ownership ranges of this rank's inter-node group:
// the slices owned by the same node-local slot in every node. The returned
// slice aliases the layout's scratch and is valid until the next call.
func (l *nodeLayout) interParts(parts []Range, slot int) []Range {
	if cap(l.interScratch) < l.count {
		l.interScratch = make([]Range, l.count)
	}
	out := l.interScratch[:l.count]
	for m := range out {
		out[m] = parts[m*l.size+slot]
	}
	return out
}

// reduceScatterNodes is ReduceScatter on a laid-out view: each node block
// runs an intra-node reduce-scatter of its slice of the partition, which
// concentrates the node's partial sums on the member that will own them,
// then the inter-node group finishes the owned slices across nodes. Only
// (|x|/S)·(M-1)/M elements per rank cross nodes.
func (c *Comm) reduceScatterNodes(x []float32, parts []Range) {
	l := c.nodes
	intra, inter := l.intra[c.dtype], l.inter[c.dtype]
	for m := 0; m < l.count; m++ {
		intra.ReduceScatter(x, parts[m*l.size:(m+1)*l.size])
	}
	inter.ReduceScatter(x, l.interParts(parts, intra.pos))
}

// allGatherNodes is the mirror of reduceScatterNodes: the inter-node group
// exchanges the owned slices first, then each node redistributes
// internally, block by block. It moves whichever payload b holds.
func (c *Comm) allGatherNodes(b Buffer, parts []Range) {
	l := c.nodes
	intra, inter := l.intra[c.dtype], l.inter[c.dtype]
	inter.allGather(b, l.interParts(parts, intra.pos))
	for m := 0; m < l.count; m++ {
		intra.allGather(b, parts[m*l.size:(m+1)*l.size])
	}
}
