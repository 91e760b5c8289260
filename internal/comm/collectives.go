package comm

import (
	"fmt"

	"repro/internal/tensor"
)

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
//
// A ring step moves a chunk only when it carries elements: the send of an
// empty chunk and its matching receive are both skipped. Every member
// computes the same chunk list, so the pairing on each link is unchanged.
// Element and byte counts are those above (an empty chunk never carried
// any); Stats.Messages counts one send and one receive per non-empty chunk
// hop. That matters when a bucket falls inside one member's partition, as
// ZeRO's stage-3 bucket windows do, and most chunks are empty. Each ring
// message is stamped with its chunk's offset and its buffer's length, and
// the receiver checks both against its own, so members that disagree on a
// buffer still panic rather than pair mismatched chunks.

// AllReduce sums x elementwise across the group, in place, using the
// two-phase ring algorithm (pipelined reduce-scatter then all-gather) — on
// a laid-out view (Nodes), their two-level forms over the canonical
// partition.
func (c *Comm) AllReduce(x []float32) {
	n := c.Size()
	if c.nodes != nil {
		parts := Partition(len(x), n)
		c.reduceScatterNodes(x, parts)
		c.allGatherNodes(Buffer{Data: x}, parts)
		return
	}
	if n == 1 {
		return
	}
	// nil parts: the ring splits x evenly without a per-call range list.
	c.ringReduceScatter(x, nil)
	ringAllGather(c, x, nil, c.pos)
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
// ranges works (the two-level phases pass non-tiling lists). On a laid-out
// view it runs two-level (hierarchical.go). Returns this member's reduced
// shard as a subslice of x.
func (c *Comm) ReduceScatter(x []float32, parts []Range) []float32 {
	if len(parts) != c.Size() {
		panic("comm: ReduceScatter partition count != group size")
	}
	if c.nodes != nil {
		c.reduceScatterNodes(x, parts)
	} else if c.Size() > 1 {
		c.ringReduceScatter(x, parts)
	}
	p := parts[c.pos]
	return x[p.Lo:p.Hi]
}

// AllGather collects each member's shard (shard = x[parts[rank]] already in
// place) into every listed range of x on every member. parts has one Range
// per member (see ReduceScatter for the shape contract).
func (c *Comm) AllGather(x []float32, parts []Range) { c.allGather(Buffer{Data: x}, parts) }

// allGather runs the ring — two-level on a laid-out view — over whichever
// payload b holds: a half buffer's 2-byte elements move as they are and
// land bitwise where the float gather of their decoded images would. It is
// accounted at the communicator's own dtype (Stream ops pick the view
// matching b's).
func (c *Comm) allGather(b Buffer, parts []Range) {
	if len(parts) != c.Size() {
		panic("comm: AllGather partition count != group size")
	}
	switch {
	case c.nodes != nil:
		c.allGatherNodes(b, parts)
	case c.Size() == 1:
	case b.Half != nil:
		ringAllGather(c, b.Half, parts, c.pos)
	default:
		ringAllGather(c, b.Data, parts, c.pos)
	}
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
			data := c.recv(parent)
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
			c.send((child+root)%n, x)
		}
		mask >>= 1
	}
}

// reduce sums x across the group onto the root member (in place at root;
// other members' x is unchanged). Implemented as reduce-scatter +
// gather-to-root so per-rank volume stays O(Ψ). root is a group-local rank.
func (c *Comm) reduce(x []float32, root int) {
	n := c.Size()
	c.checkRoot(root)
	if n == 1 {
		return
	}
	parts := Partition(len(x), n)
	work := c.w.wire.Get(len(x))
	copy(work, x)
	c.ringReduceScatter(work, parts)
	mine := parts[c.pos]
	if c.pos == root {
		copy(x[mine.Lo:mine.Hi], work[mine.Lo:mine.Hi])
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			shard := c.recv(r)
			p := parts[r]
			copy(x[p.Lo:p.Hi], shard)
			c.release(shard)
		}
	} else {
		c.send(root, work[mine.Lo:mine.Hi])
	}
	c.release(work)
}

// Gather collects each member's shard to the root member. shard lengths may
// differ per member; root receives them in group-rank order into out
// (caller-sized), refilling each slot in place — a root that gathers into
// the same out every time allocates only when a shard outgrows its slot.
// Non-root members pass out == nil.
func (c *Comm) Gather(shard []float32, root int, out [][]float32) {
	c.checkRoot(root)
	if c.pos == root {
		if len(out) != c.Size() {
			panic("comm: Gather out must have one slot per group member")
		}
		out[root] = append(out[root][:0], shard...)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			data := c.recv(r)
			out[r] = append(out[r][:0], data...)
			c.release(data)
		}
		return
	}
	c.send(root, shard)
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
func (c *Comm) ringReduceScatter(x []float32, parts []Range) {
	n := c.Size()
	right := (c.pos + 1) % n
	left := (c.pos - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := ((c.pos-s-1)%n + n) % n
		recvIdx := ((c.pos-s-2)%n + n) % n
		sendChunk(c, right, x, chunk(parts, len(x), n, sendIdx))
		rp := chunk(parts, len(x), n, recvIdx)
		if data := recvChunk(c, left, x, rp); data != nil {
			tensor.Add(x[rp.Lo:rp.Hi], data)
			c.release(data)
		}
	}
}

// ringAllGather runs the N-1 step ring so that, on return, every member
// holds every chunk (nil parts as in ringReduceScatter). ownIdx names the
// chunk this member contributes. A gather only moves elements, so the one
// ring serves float32 and half payloads.
func ringAllGather[T elem](c *Comm, x []T, parts []Range, ownIdx int) {
	n := c.Size()
	right := (c.pos + 1) % n
	left := (c.pos - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := ((ownIdx-s)%n + n) % n
		recvIdx := ((ownIdx-s-1)%n + n) % n
		sendChunk(c, right, x, chunk(parts, len(x), n, sendIdx))
		rp := chunk(parts, len(x), n, recvIdx)
		if words := recvChunk(c, left, x, rp); words != nil {
			copy(x[rp.Lo:rp.Hi], wireView[T](words, rp.Len()))
			c.release(words)
		}
	}
}

// sendChunk sends chunk r of x to the group-local rank dst, stamped with
// r's offset and x's length — or nothing at all when r is empty.
func sendChunk[T elem](c *Comm, dst int, x []T, r Range) {
	if r.Lo != r.Hi {
		sendElems(c, dst, x[r.Lo:r.Hi], r.Lo, len(x))
	}
}

// recvChunk receives chunk r of x from the group-local rank src, the mirror
// of sendChunk, and returns the message's pool words — nil, with nothing
// received, when r is empty. A message whose stamp or length differs from
// r and x panics.
func recvChunk[T elem](c *Comm, src int, x []T, r Range) []float32 {
	if r.Lo == r.Hi {
		return nil
	}
	msg := c.recvMsg(src)
	if msg.off != r.Lo || msg.elems != r.Len() || msg.total != len(x) {
		panic(fmt.Sprintf("comm: ring chunk length mismatch (buffers must be equal-length on all ranks): "+
			"got %d elems at offset %d of a %d-element buffer, want %d at %d of %d",
			msg.elems, msg.off, msg.total, r.Len(), r.Lo, len(x)))
	}
	return msg.words
}
