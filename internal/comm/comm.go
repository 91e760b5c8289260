// Package comm implements the collective communication substrate for the
// ZeRO reproduction: an N-rank in-process "cluster" where every rank is a
// goroutine and links are Go channels.
//
// The collectives (ring all-reduce, ring reduce-scatter, ring all-gather,
// tree broadcast) are implemented from scratch with the same algorithms the
// paper's analysis assumes (§7.1: "state-of-art implementation of all-reduce
// uses a two-step approach... both implemented using a pipelined approach"),
// and every rank counts the elements and bytes it sends and receives. The
// paper's central communication claims — baseline DP moves 2Ψ per rank, ZeRO
// Pos+g moves 2Ψ, Pos+g+p moves 3Ψ — are therefore *measured* by the test
// suite, not assumed.
//
// # Ordering domains (streams)
//
// Every Comm belongs to exactly one ordering domain. World.Comm returns the
// default domain; Scheduler.Stream creates named domains ("grad",
// "prefetch", "checkpoint", ...) that execute asynchronously on a worker
// goroutine per stream. Each (src, dst, stream) triple has its own private
// channel, so collectives on different streams never interleave on the wire:
// if every rank creates the same stream names and submits the same per-stream
// op order, the cross-rank pairing of every op is deterministic — the
// contract NCCL streams give CUDA callers, and the reason concurrent
// gradient reduction, parameter prefetch and checkpoint gathers compose
// without a global serialization point.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/arena"
)

// DefaultStream is the Stats key under which traffic of the default
// ordering domain (plain World.Comm communicators) is recorded.
const DefaultStream = "default"

// linkDepth is the per-channel buffer capacity: deep enough that lock-step
// ring phases run without a rendezvous and tree-broadcast fan-out is
// absorbed.
const linkDepth = 8

// World is a fixed-size group of ranks connected all-to-all. Create one per
// simulated job, hand each worker goroutine its Comm via Run or Comm.
type World struct {
	n     int
	links [][]chan wireMsg // default-domain links[src][dst], buffered

	mu          sync.Mutex                  // guards the two maps below
	streamLinks map[streamLink]chan wireMsg // named-domain links, lazily created
	streamNames map[streamClaim]bool        // (rank, stream) pairs claimed by live Schedulers

	stats []rankStats // per-rank counters, locked per rank

	// wire pools the per-message copies every send makes: after a warm-up
	// step, steady-state collectives move data through recycled buffers
	// instead of allocating one per message. Internal receive paths (ring
	// phases, broadcast, reduce, gather) recycle the buffer after their
	// last read — Gather clones each shard into caller-owned memory first —
	// while a buffer handed out by the public Recv escapes to the caller
	// and simply falls back to the GC.
	wire *arena.Arena

	// faults is the rank-failure bookkeeping (nil until fault injection is
	// enabled; see failure.go). dead/closed inside are guarded by mu.
	faults *faultState
}

// streamLink keys one directed channel of a named ordering domain.
type streamLink struct {
	src, dst int
	stream   string
}

// streamClaim records that a rank's Scheduler owns a stream name; a second
// Scheduler claiming the same name on the same rank would silently share
// wire channels with the first, so claiming twice panics instead.
type streamClaim struct {
	rank int
	name string
}

// Traffic is one bucket of per-group accounting: elements and native wire
// bytes sent under a group label.
type Traffic struct {
	Elems int64
	Bytes int64
}

// Stats counts communication traffic for one rank. Element counts are
// dtype-agnostic; byte counts are native — each op records the wire width of
// the Buffer it moved (2 bytes for F16, 4 for F32), so fp16 traffic is
// measured rather than inferred by convention.
type Stats struct {
	ElemsSent int64
	ElemsRecv int64
	BytesSent int64
	BytesRecv int64
	Messages  int64
	// PerCollective maps collective name (suffixed ":<label>" on labeled
	// group communicators) to elements sent under it.
	PerCollective map[string]int64
	// PerStream maps ordering-domain name (DefaultStream for plain Comms)
	// to elements sent on it.
	PerStream map[string]int64
	// PerGroup maps a group communicator's accounting label (Comm.Named;
	// "hier-intra"/"hier-inter" for the hierarchical collectives, "mp"/"dp"
	// for the 2D layout helpers) to the traffic sent under it, with native
	// byte accounting — the counters behind the measured intra-vs-inter
	// node split.
	PerGroup map[string]Traffic
}

// rankStats wraps one rank's Stats with a lock: a rank's traffic may be
// recorded concurrently by its main goroutine and its stream workers.
type rankStats struct {
	mu sync.Mutex
	s  Stats
}

func (rs *rankStats) record(op, stream, label string, width int, sent, recv int64) {
	rs.mu.Lock()
	s := &rs.s
	s.ElemsSent += sent
	s.ElemsRecv += recv
	s.BytesSent += sent * int64(width)
	s.BytesRecv += recv * int64(width)
	s.Messages++
	if s.PerCollective == nil {
		s.PerCollective = make(map[string]int64)
	}
	s.PerCollective[op] += sent
	if s.PerStream == nil {
		s.PerStream = make(map[string]int64)
	}
	if stream == "" {
		stream = DefaultStream
	}
	s.PerStream[stream] += sent
	if label != "" {
		if s.PerGroup == nil {
			s.PerGroup = make(map[string]Traffic)
		}
		tr := s.PerGroup[label]
		tr.Elems += sent
		tr.Bytes += sent * int64(width)
		s.PerGroup[label] = tr
	}
	rs.mu.Unlock()
}

// NewWorld creates a world of n ranks. n must be positive.
func NewWorld(n int) *World {
	if n <= 0 {
		panic("comm: world size must be positive")
	}
	links := make([][]chan wireMsg, n)
	for i := range links {
		links[i] = make([]chan wireMsg, n)
		for j := range links[i] {
			if i != j {
				links[i][j] = make(chan wireMsg, linkDepth)
			}
		}
	}
	return &World{
		n:           n,
		links:       links,
		streamLinks: make(map[streamLink]chan wireMsg),
		streamNames: make(map[streamClaim]bool),
		stats:       make([]rankStats, n),
		wire:        arena.New(),
	}
}

// WirePool exposes the world's wire-buffer arena for instrumentation and
// pool-hygiene tests (Resident/Stats/Release).
func (w *World) WirePool() *arena.Arena { return w.wire }

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Comm returns the communicator handle for one rank, on the default
// ordering domain with F32 wire accounting. Each handle must only be used
// from a single goroutine at a time.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.n))
	}
	c := &Comm{w: w, rank: rank, pos: rank, topos: &topoCache{}}
	c.bindWires()
	return c
}

// Run spawns one goroutine per rank, invokes fn with that rank's Comm, and
// waits for all ranks to return. This is the SPMD entry point used by every
// trainer in the repository.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
}

// channel resolves the directed wire between src and dst on one ordering
// domain. Default-domain channels are preallocated; named-domain channels
// are created on first use (sender or receiver, whichever binds first). The
// lookup takes the world-wide lock, so it runs once per communicator view
// (bindWires), never per message.
func (w *World) channel(src, dst int, stream string) chan wireMsg {
	if stream == "" {
		return w.links[src][dst]
	}
	k := streamLink{src: src, dst: dst, stream: stream}
	w.mu.Lock()
	ch := w.streamLinks[k]
	if ch == nil {
		ch = make(chan wireMsg, linkDepth)
		w.streamLinks[k] = ch
	}
	w.mu.Unlock()
	return ch
}

// claimStream registers a named ordering domain for one rank. Two live
// Schedulers claiming the same name on the same rank would share wire
// channels and scramble pairing, so the second claim panics.
func (w *World) claimStream(rank int, name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := streamClaim{rank: rank, name: name}
	if w.streamNames[k] {
		panic(fmt.Sprintf("comm: stream %q already exists for rank %d (one ordering domain per name per rank)", name, rank))
	}
	w.streamNames[k] = true
}

// releaseStream returns a stream name to the pool (Scheduler.Close).
func (w *World) releaseStream(rank int, name string) {
	w.mu.Lock()
	delete(w.streamNames, streamClaim{rank: rank, name: name})
	w.mu.Unlock()
}

// Stats returns a copy of the traffic counters for rank r. Safe to call at
// any time, including while streams are executing ops; for a snapshot that
// is consistent *across* in-flight ops, quiesce first with
// Scheduler.Barrier (or return from Run).
func (w *World) Stats(r int) Stats {
	rs := &w.stats[r]
	rs.mu.Lock()
	s := rs.s
	if s.PerCollective != nil {
		cp := make(map[string]int64, len(s.PerCollective))
		for k, v := range s.PerCollective {
			cp[k] = v
		}
		s.PerCollective = cp
	}
	if s.PerStream != nil {
		cp := make(map[string]int64, len(s.PerStream))
		for k, v := range s.PerStream {
			cp[k] = v
		}
		s.PerStream = cp
	}
	if s.PerGroup != nil {
		cp := make(map[string]Traffic, len(s.PerGroup))
		for k, v := range s.PerGroup {
			cp[k] = v
		}
		s.PerGroup = cp
	}
	rs.mu.Unlock()
	return s
}

// TotalElemsSent sums sent elements over all ranks.
func (w *World) TotalElemsSent() int64 {
	var t int64
	for r := range w.stats {
		rs := &w.stats[r]
		rs.mu.Lock()
		t += rs.s.ElemsSent
		rs.mu.Unlock()
	}
	return t
}

// TotalBytesSent sums natively accounted wire bytes over all ranks.
func (w *World) TotalBytesSent() int64 {
	var t int64
	for r := range w.stats {
		rs := &w.stats[r]
		rs.mu.Lock()
		t += rs.s.BytesSent
		rs.mu.Unlock()
	}
	return t
}

// ResetStats clears all traffic counters. Safe to call while streams exist;
// quiesce with Scheduler.Barrier first if ops are in flight and the reset
// must not race mid-collective counts.
func (w *World) ResetStats() {
	for r := range w.stats {
		rs := &w.stats[r]
		rs.mu.Lock()
		rs.s = Stats{}
		rs.mu.Unlock()
	}
}

// Comm is one rank's communicator: a process group (the whole world, or a
// subset carved out by Split/Subgroup) bound to one ordering domain (stream)
// and one wire dtype for traffic accounting. World.Comm hands out the
// world group on the default domain; Scheduler.Stream derives named domains;
// Split, Subgroup, MPGroup, DPGroup and NodeTopology derive subgroups.
//
// Every collective is group-generic: it runs over the communicator's member
// set, with ranks, partition indices and broadcast roots all expressed in
// group-local coordinates. On the world communicator, group-local and global
// ranks coincide.
type Comm struct {
	w       *World
	rank    int    // global (world) rank: wire identity and stats slot
	members []int  // group members as global ranks; nil ⇒ the whole world
	pos     int    // this rank's index within the group (== rank when members is nil)
	stream  string // "" = default ordering domain
	dtype   DType  // wire width recorded by Stats; F32 unless derived
	label   string // PerGroup accounting label ("" = unattributed)

	// out[i] and in[i] are the directed links to and from group member i on
	// this communicator's ordering domain (nil at i == pos), resolved once by
	// bindWires when the member set or the stream is fixed — World.Comm,
	// Subgroup, Scheduler.Stream — and shared by the Named/WithDType views,
	// so the per-message path is a slice index.
	out, in []chan wireMsg

	// opCache maps collective names to their ":<label>"-suffixed form so
	// labeled sends don't concatenate strings per message. Built once by
	// Named and shared (read-only) by every derived view.
	opCache map[string]string
	// topos caches NodeTopology results per (nodeSize, dtype, label) so
	// hierarchical collectives don't rebuild sub-communicators per op. The
	// pointer is shared by same-group views (Named/WithDType) and reset by
	// Subgroup/Split, whose member sets differ. Comm handles are
	// single-goroutine, so the cache is unlocked.
	topos *topoCache
}

// Rank returns this communicator's group-local rank: the index of this rank
// within the group's member list. On the world communicator it equals the
// global rank.
func (c *Comm) Rank() int { return c.pos }

// Size returns the group's member count (the world size on the world
// communicator).
func (c *Comm) Size() int {
	if c.members == nil {
		return c.w.n
	}
	return len(c.members)
}

// GlobalRank returns the underlying world rank, regardless of how deeply
// this communicator was derived.
func (c *Comm) GlobalRank() int { return c.rank }

// global translates a group-local rank to the global rank addressed on the
// wire.
func (c *Comm) global(member int) int {
	if c.members == nil {
		return member
	}
	return c.members[member]
}

// bindWires resolves this communicator's links to every group member on its
// ordering domain.
func (c *Comm) bindWires() {
	n := c.Size()
	c.out = make([]chan wireMsg, n)
	c.in = make([]chan wireMsg, n)
	for i := 0; i < n; i++ {
		if g := c.global(i); g != c.rank {
			c.out[i] = c.w.channel(c.rank, g, c.stream)
			c.in[i] = c.w.channel(g, c.rank, c.stream)
		}
	}
}

// World returns the underlying world (for stats inspection).
func (c *Comm) World() *World { return c.w }

// Named returns a view of the communicator whose traffic is additionally
// aggregated under label in Stats.PerGroup (and whose PerCollective keys
// carry a ":<label>" suffix), so e.g. MP and DP traffic of a 2D layout, or
// the intra-vs-inter split of a hierarchical collective, can be separated.
func (c *Comm) Named(label string) *Comm {
	if label == c.label {
		return c
	}
	cp := *c
	cp.label = label
	cp.opCache = buildOpCache(label)
	return &cp
}

// knownOps lists every collective name a Comm records, so Named can
// precompute the labeled forms instead of allocating a concatenation per
// message on the hot path.
var knownOps = []string{
	"allreduce", "reducescatter", "allgather", "broadcast", "reduce",
	"gather", "split", "p2p", "barrier",
}

func buildOpCache(label string) map[string]string {
	if label == "" {
		return nil
	}
	m := make(map[string]string, len(knownOps))
	for _, op := range knownOps {
		m[op] = op + ":" + label
	}
	return m
}

// Label returns the traffic-accounting label set by Named ("" if none).
func (c *Comm) Label() string { return c.label }

// DType returns the wire dtype this communicator accounts traffic at.
func (c *Comm) DType() DType { return c.dtype }

// WithDType returns a view of the communicator whose traffic is accounted
// at d's wire width. The view shares the ordering domain — it is the same
// stream, only the bookkeeping changes.
func (c *Comm) WithDType(d DType) *Comm {
	if d == c.dtype {
		return c
	}
	cp := *c
	cp.dtype = d
	return &cp
}

// opName decorates a collective name with the group label so PerCollective
// separates labeled group traffic from the unlabeled world traffic.
func (c *Comm) opName(op string) string {
	if c.label == "" {
		return op
	}
	if s, ok := c.opCache[op]; ok {
		return s
	}
	return op + ":" + c.label
}

// sendElems transmits a copy of data to the group-local rank dst and
// accounts for it under op. The copy draws from the world's wire pool; the
// receiver recycles it after its last read (every internal path — Gather
// clones before recycling) or lets it escape to the GC (the public Recv).
func sendElems[T elem](c *Comm, op string, dst int, data []T) {
	if dst == c.pos {
		panic("comm: send to self")
	}
	msg := wireMsg{words: c.w.wire.Get(wireWords[T](len(data))), elems: len(data)}
	copy(wireView[T](msg.words, msg.elems), data)
	if c.w.faultsOn() {
		c.w.preOp(c.rank)
		c.sendWire(dst, msg)
	} else {
		c.out[dst] <- msg
	}
	c.w.stats[c.rank].record(c.opName(op), c.stream, c.label, c.dtype.Bytes(), int64(len(data)), 0)
}

// send is sendElems for the float32 payloads every collective but the half
// all-gather moves.
func (c *Comm) send(op string, dst int, data []float32) { sendElems(c, op, dst, data) }

// release returns a received wire buffer to the pool. Call only after the
// last read of the buffer.
func (c *Comm) release(data []float32) { c.w.wire.Put(data) }

// recvMsg blocks for a message from the group-local rank src and accounts
// for it.
func (c *Comm) recvMsg(op string, src int) wireMsg {
	if src == c.pos {
		panic("comm: recv from self")
	}
	var msg wireMsg
	if c.w.faultsOn() {
		c.w.preOp(c.rank)
		msg = c.recvWire(src)
	} else {
		msg = <-c.in[src]
	}
	c.w.stats[c.rank].record(c.opName(op), c.stream, c.label, c.dtype.Bytes(), 0, int64(msg.elems))
	return msg
}

// recv is recvMsg for float32 payloads, where the pool words are the
// elements.
func (c *Comm) recv(op string, src int) []float32 { return c.recvMsg(op, src).words }

// Send transmits data to the group-local rank dst (point-to-point).
func (c *Comm) Send(dst int, data []float32) { c.send("p2p", dst, data) }

// Recv blocks for a message from the group-local rank src (point-to-point).
func (c *Comm) Recv(src int) []float32 { return c.recv("p2p", src) }

// Barrier blocks until every member of the group has entered it.
// Implemented as a dissemination barrier: ⌈log2 n⌉ rounds of empty
// messages.
func (c *Comm) Barrier() {
	n := c.Size()
	for dist := 1; dist < n; dist <<= 1 {
		dst := (c.pos + dist) % n
		src := (c.pos - dist%n + n) % n
		c.send("barrier", dst, nil)
		c.recv("barrier", src)
	}
}
