package comm

import "fmt"

// Ring and tree collectives. Per-rank traffic for a buffer of Ψ elements on
// a group of N members (the quantities the paper's §7 analysis is built on):
//
//	ReduceScatter: sends Ψ·(N-1)/N   ≈ Ψ
//	AllGather:     sends Ψ·(N-1)/N   ≈ Ψ
//	AllReduce:     sends 2Ψ·(N-1)/N  ≈ 2Ψ  (reduce-scatter + all-gather)
//	Broadcast:     tree; root sends ≤ Ψ·⌈log2 N⌉ aggregate, Ψ per edge
//
// Every collective is group-generic: it runs over the members of its Comm —
// the whole world for World.Comm handles, a rank subset for communicators
// derived by Split/Subgroup — with ranks, partition indices and roots in
// group-local coordinates. All members must enter the collective with
// buffers of identical length; collectives are synchronizing operations.

// AllReduce sums x elementwise across the group, in place, using the
// two-phase ring algorithm (pipelined reduce-scatter then all-gather).
func (c *Comm) AllReduce(x []float32) {
	n := c.Size()
	if n == 1 {
		return
	}
	// nil parts: the ring splits x evenly without a per-call range list.
	c.ringReduceScatter("allreduce", x, nil)
	ringAllGather(c, "allreduce", x, nil, c.pos)
}

// AllReduceAvg sums x across the group and divides by the group size — the
// gradient-averaging step of data-parallel training.
func (c *Comm) AllReduceAvg(x []float32) {
	c.AllReduce(x)
	inv := 1 / float32(c.Size())
	for i := range x {
		x[i] *= inv
	}
}

// ReduceScatter reduces x elementwise across the group and leaves member r
// owning the fully reduced partition parts[r] (in place; other regions of x
// hold partially reduced garbage afterwards). parts has one Range per
// member — typically Partition(len(x), Size()), but any list of disjoint
// ranges works (the hierarchical collectives pass non-tiling lists).
// Returns this member's reduced shard as a subslice of x.
func (c *Comm) ReduceScatter(x []float32, parts []Range) []float32 {
	if len(parts) != c.Size() {
		panic("comm: ReduceScatter partition count != group size")
	}
	if c.Size() > 1 {
		c.ringReduceScatter("reducescatter", x, parts)
	}
	p := parts[c.pos]
	return x[p.Lo:p.Hi]
}

// AllGather collects each member's shard (shard = x[parts[rank]] already in
// place) into every listed range of x on every member. parts has one Range
// per member (see ReduceScatter for the shape contract).
func (c *Comm) AllGather(x []float32, parts []Range) { c.allGather(Buffer{Data: x}, parts) }

// allGather runs the ring over whichever payload b holds — a half buffer's
// 2-byte elements move as they are and land bitwise where the float gather
// of their decoded images would — accounted at the communicator's own dtype
// (callers pick the view: Stream ops and AllGatherHierarchical take b's).
func (c *Comm) allGather(b Buffer, parts []Range) {
	if len(parts) != c.Size() {
		panic("comm: AllGather partition count != group size")
	}
	if c.Size() == 1 {
		return
	}
	if b.Half != nil {
		ringAllGather(c, "allgather", b.Half, parts, c.pos)
		return
	}
	ringAllGather(c, "allgather", b.Data, parts, c.pos)
}

// Broadcast distributes the root member's x to every member, in place, over
// a binomial tree (⌈log2 N⌉ latency, one buffer per tree edge). root is a
// group-local rank.
func (c *Comm) Broadcast(x []float32, root int) {
	n := c.Size()
	c.checkRoot(root)
	if n == 1 {
		return
	}
	// Virtual rank with root at 0 simplifies the tree arithmetic.
	vr := (c.pos - root + n) % n
	// Receive once from the parent: the node with this rank's lowest set
	// bit cleared.
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent := ((vr - mask) + root) % n
			data := c.recv("broadcast", parent)
			copy(x, data)
			c.release(data)
			break
		}
		mask <<= 1
	}
	// Forward to children at decreasing distances below the receive bit.
	mask >>= 1
	for mask > 0 {
		if child := vr + mask; child < n {
			c.send("broadcast", (child+root)%n, x)
		}
		mask >>= 1
	}
}

// Reduce sums x across the group onto the root member (in place at root;
// other members' x is unchanged). Implemented as reduce-scatter +
// gather-to-root so per-rank volume stays O(Ψ). root is a group-local rank.
func (c *Comm) Reduce(x []float32, root int) {
	n := c.Size()
	c.checkRoot(root)
	if n == 1 {
		return
	}
	parts := Partition(len(x), n)
	work := c.w.wire.Get(len(x))
	copy(work, x)
	c.ringReduceScatter("reduce", work, parts)
	mine := parts[c.pos]
	if c.pos == root {
		copy(x[mine.Lo:mine.Hi], work[mine.Lo:mine.Hi])
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			shard := c.recv("reduce", r)
			p := parts[r]
			copy(x[p.Lo:p.Hi], shard)
			c.release(shard)
		}
	} else {
		c.send("reduce", root, work[mine.Lo:mine.Hi])
	}
	c.release(work)
}

// Gather collects each member's shard to the root member. shard lengths may
// differ per member; root receives them in group-rank order into out
// (caller-sized). Non-root members pass out == nil.
func (c *Comm) Gather(shard []float32, root int, out [][]float32) {
	c.checkRoot(root)
	if c.pos == root {
		if len(out) != c.Size() {
			panic("comm: Gather out must have one slot per group member")
		}
		out[root] = append([]float32(nil), shard...)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			data := c.recv("gather", r)
			out[r] = append([]float32(nil), data...)
			c.release(data)
		}
		return
	}
	c.send("gather", root, shard)
}

// checkRoot panics on a root outside the group — roots are group-local
// ranks, an easy slip now that Rank() is group-local too (passing a global
// rank into a subgroup's Broadcast would otherwise silently re-root at 0
// or index out of range deep in the wire lookup).
func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("comm: root %d out of range [0,%d) (roots are group-local ranks)", root, c.Size()))
	}
}

// ringReduceScatter runs the N-1 step ring so that, on return, member r
// holds the fully reduced chunk parts[r] inside x (nil parts: the even split,
// see chunk).
func (c *Comm) ringReduceScatter(op string, x []float32, parts []Range) {
	n := c.Size()
	right := (c.pos + 1) % n
	left := (c.pos - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := ((c.pos-s-1)%n + n) % n
		recvIdx := ((c.pos-s-2)%n + n) % n
		sp := chunk(parts, len(x), n, sendIdx)
		c.send(op, right, x[sp.Lo:sp.Hi])
		data := c.recv(op, left)
		rp := chunk(parts, len(x), n, recvIdx)
		dst := x[rp.Lo:rp.Hi]
		if len(data) != len(dst) {
			panic("comm: ring chunk length mismatch (buffers must be equal-length on all ranks)")
		}
		for i, v := range data {
			dst[i] += v
		}
		c.release(data)
	}
}

// ringAllGather runs the N-1 step ring so that, on return, every member
// holds every chunk (nil parts as in ringReduceScatter). ownIdx names the
// chunk this member contributes. A gather only moves elements, so the one
// ring serves float32 and half payloads.
func ringAllGather[T elem](c *Comm, op string, x []T, parts []Range, ownIdx int) {
	n := c.Size()
	right := (c.pos + 1) % n
	left := (c.pos - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := ((ownIdx-s)%n + n) % n
		recvIdx := ((ownIdx-s-1)%n + n) % n
		sp := chunk(parts, len(x), n, sendIdx)
		sendElems(c, op, right, x[sp.Lo:sp.Hi])
		msg := c.recvMsg(op, left)
		rp := chunk(parts, len(x), n, recvIdx)
		dst := x[rp.Lo:rp.Hi]
		if msg.elems != len(dst) {
			panic("comm: ring chunk length mismatch (buffers must be equal-length on all ranks)")
		}
		copy(dst, wireView[T](msg.words, msg.elems))
		c.release(msg.words)
	}
}
