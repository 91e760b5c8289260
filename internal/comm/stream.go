package comm

import "sync"

// Scheduler multiplexes named ordering domains ("streams") over one rank's
// communicator — the stream abstraction NCCL and DeepSpeed use to let
// gradient reduction, parameter prefetch and checkpoint gathers proceed
// concurrently without a global serialization point.
//
// Determinism contract: every rank of the world must create the same stream
// names and submit the same per-stream op order. Each stream owns private
// wire channels per rank pair, so ops pair FIFO within a stream and never
// with another stream's ops — same names + same per-stream submission order
// ⇒ the same global pairing on every run, which is what keeps overlapped
// schedules bitwise identical to synchronous ones.
//
// Buffer ownership: a submitted op owns its buffer region until its Handle
// is waited (or the stream flushed). Callers may freely mutate *disjoint*
// regions concurrently — that is the point: backward writes layer k's
// gradients while layer k+1's bucket is on the wire, and the prefetch stream
// gathers layer k+1's parameters while layer k computes.
type Scheduler struct {
	c *Comm

	mu      sync.Mutex
	streams map[string]*Stream
	order   []*Stream
	closed  bool
}

// defaultQueueDepth is every stream's submission-queue capacity: deep
// enough that a backward pass never blocks on submission at realistic
// bucket counts. When a queue is full, submission blocks until the worker
// drains an op — backpressure that bounds how far a producer can run ahead
// of the wire, never dropping or reordering ops.
const defaultQueueDepth = 64

// NewScheduler creates a stream scheduler over one rank's communicator;
// every stream inherits its group and node layout (Nodes), so a scheduler
// over a laid-out view runs its reduce-scatters, all-gathers and
// all-reduces two-level. Creation is cheap (no goroutines until a stream is created). The
// scheduler assumes it is the only issuer of named streams for this rank;
// a second scheduler may coexist only if its stream names are disjoint
// (enforced by panic).
func NewScheduler(c *Comm) *Scheduler {
	return &Scheduler{c: c, streams: make(map[string]*Stream)}
}

// Stream returns the named ordering domain, creating it (and its worker
// goroutine) on first use. Streams are get-or-create: a second call with
// the same name returns the same stream.
func (s *Scheduler) Stream(name string) *Stream { return s.stream(name, defaultQueueDepth) }

// stream is Stream with the submission-queue capacity a new stream gets.
func (s *Scheduler) stream(name string, depth int) *Stream {
	if name == "" || name == DefaultStream {
		panic("comm: stream name must be non-empty and not the default domain")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("comm: Stream on closed Scheduler")
	}
	if st := s.streams[name]; st != nil {
		return st
	}
	s.c.w.claimStream(s.c.rank, name)
	// Two persistent dtype views of the stream's communicator, so typed ops
	// execute without deriving a per-op view: the worker picks the view
	// whose dtype matches the buffer. Both share one node layout, whose
	// levels carry both dtypes too.
	view := *s.c
	view.stream = name
	view.dtype = F32
	view.bindWires() // the stream's private links and node levels
	view16 := view
	view16.dtype = F16
	st := &Stream{
		name: name,
		c32:  &view,
		c16:  &view16,
		ops:  make(chan streamOp, depth),
		done: make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	go st.loop()
	s.streams[name] = st
	s.order = append(s.order, st)
	return st
}

// Barrier blocks until every op submitted to every stream of this scheduler
// has completed — the local quiesce point harness code uses before reading
// or resetting World stats while streams exist. Like Stream.Flush it is
// rank-local: pair it across ranks by having every rank run the same
// schedule.
func (s *Scheduler) Barrier() {
	s.mu.Lock()
	streams := append([]*Stream(nil), s.order...)
	s.mu.Unlock()
	for _, st := range streams {
		st.Flush()
	}
}

// Close drains every stream, stops the workers and releases the stream
// names. Safe to call more than once; the scheduler must not be used
// afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	streams := s.order
	s.mu.Unlock()
	for _, st := range streams {
		close(st.ops)
		<-st.done
		s.c.w.releaseStream(s.c.rank, st.name)
	}
}

// Handle is the completion token of one submitted op: the stream plus the
// op's position in its FIFO. It is a small value — obtaining one allocates
// nothing — and because streams execute strictly in submission order,
// "op k is done" is exactly "the stream has completed ≥ k ops". The zero
// Handle is valid and behaves as already-complete.
type Handle struct {
	st  *Stream
	seq int64
}

// Wait blocks until the op completes. Waiting the zero Handle is a no-op,
// and Wait may be called from any goroutine, any number of times.
func (h Handle) Wait() {
	if h.st != nil {
		h.st.waitFor(h.seq)
	}
}

// Done reports (without blocking) whether the op has completed.
func (h Handle) Done() bool {
	if h.st == nil {
		return true
	}
	h.st.mu.Lock()
	defer h.st.mu.Unlock()
	return h.st.completed >= h.seq
}

// Valid reports whether the handle refers to a submitted op (false for the
// zero Handle) — how pipelined schedulers mark "not launched yet" without
// allocating sentinel objects.
func (h Handle) Valid() bool { return h.st != nil }

// opKind discriminates the precompiled collective ops a stream executes
// without a closure allocation per submission.
type opKind uint8

const (
	opFn opKind = iota
	opReduceScatter
	opAllGather
	opAllReduce
)

// streamOp is one queued unit of work: either a typed collective (kind +
// buffer + partition) or an arbitrary fn.
type streamOp struct {
	kind  opKind
	b     Buffer
	parts []Range
	fn    func(*Comm)
}

// Stream is one named ordering domain of one rank: a FIFO of collective ops
// executed by a dedicated worker goroutine on a stream-tagged communicator.
// Ops on the same stream execute in submission order; ops on different
// streams are unordered with respect to each other (their wire channels are
// disjoint, so no ordering is needed for correctness).
type Stream struct {
	name string
	c32  *Comm // stream view with F32 accounting (the default)
	c16  *Comm // same domain, F16 accounting
	ops  chan streamOp
	done chan struct{}

	submitMu  sync.Mutex // serializes seq assignment with queue order
	submitted int64

	mu        sync.Mutex // guards completed and err; cond signals progress
	cond      *sync.Cond
	completed int64
	err       error // rank-death error captured by the worker; re-raised at waits
}

func (st *Stream) loop() {
	defer close(st.done)
	for op := range st.ops {
		if st.Err() == nil {
			st.execSafe(op)
		}
		st.mu.Lock()
		st.completed++
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// execSafe runs one op, capturing rank-death panics (an injected kill or a
// dead peer observed on the wire) so the worker goroutine survives to drain
// its queue: subsequent ops complete as no-ops and Scheduler.Close still
// works during teardown. The captured error is re-panicked on the rank's own
// goroutine at the next Wait/Flush. Panics outside the rank-failure protocol
// propagate and crash, as programming errors should.
func (st *Stream) execSafe(op streamOp) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := asRankDeath(r)
			if !ok {
				panic(r)
			}
			st.mu.Lock()
			if st.err == nil {
				st.err = err
			}
			st.mu.Unlock()
		}
	}()
	st.exec(op)
}

// Err returns the rank-death error the worker captured, if any.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// commFor picks the persistent stream view matching the buffer's wire
// dtype, so collectives run without deriving a per-op communicator.
func (st *Stream) commFor(d DType) *Comm {
	if d == F16 {
		return st.c16
	}
	return st.c32
}

func (st *Stream) exec(op streamOp) {
	c := st.commFor(op.b.DType)
	switch op.kind {
	case opFn:
		if op.fn != nil {
			op.fn(st.c32)
		}
	case opReduceScatter:
		c.ReduceScatter(op.b.floats(), op.parts)
	case opAllGather:
		c.allGather(op.b, op.parts)
	case opAllReduce:
		c.AllReduce(op.b.floats())
	}
}

// waitFor blocks until the stream has completed at least seq ops. If the
// worker captured a rank-death error, waitFor re-panics it here — on the
// rank's own goroutine — so the death propagates to World.Run even
// when it struck an asynchronously executing op.
func (st *Stream) waitFor(seq int64) {
	st.mu.Lock()
	for st.completed < seq {
		st.cond.Wait()
	}
	err := st.err
	st.mu.Unlock()
	if err != nil {
		panic(err)
	}
}

// enqueue assigns the op its FIFO position and queues it. Sequence
// assignment and channel send happen under one lock so the queue order
// always matches the sequence order, even with multiple submitters; the
// worker never takes this lock, so backpressure (a full queue) cannot
// deadlock completion.
func (st *Stream) enqueue(op streamOp) Handle {
	st.submitMu.Lock()
	st.submitted++
	seq := st.submitted
	st.ops <- op
	st.submitMu.Unlock()
	return Handle{st: st, seq: seq}
}

// Rank returns this rank's group-local rank in the scheduler's group.
func (st *Stream) Rank() int { return st.c32.pos }

// Size returns the scheduler's group size.
func (st *Stream) Size() int { return st.c32.Size() }

// Submit enqueues an arbitrary op; fn runs on the worker goroutine with the
// stream's communicator (use Comm.withDType inside fn for non-F32
// accounting). Blocks only when the queue is full (see defaultQueueDepth).
// The typed collective methods below are cheaper (no closure); prefer them
// on hot paths.
func (st *Stream) Submit(fn func(c *Comm)) Handle {
	return st.enqueue(streamOp{kind: opFn, fn: fn})
}

// ReduceScatter enqueues a reduce-scatter of b under parts. The parts slice
// is owned by the op until its Handle is waited.
func (st *Stream) ReduceScatter(b Buffer, parts []Range) Handle {
	b.floats() // a half buffer panics here, not on the worker
	return st.enqueue(streamOp{kind: opReduceScatter, b: b, parts: parts})
}

// AllGather enqueues an all-gather of b under parts — of its halves when b
// is a HalfBuf.
func (st *Stream) AllGather(b Buffer, parts []Range) Handle {
	return st.enqueue(streamOp{kind: opAllGather, b: b, parts: parts})
}

// AllReduce enqueues an all-reduce (sum) of b. Like ReduceScatter and
// AllGather it runs two-level when the scheduler's communicator is laid
// out (Nodes), with the intra/inter split recorded under the
// "hier-intra"/"hier-inter" group labels at b's wire width.
func (st *Stream) AllReduce(b Buffer) Handle {
	b.floats() // a half buffer panics here, not on the worker
	return st.enqueue(streamOp{kind: opAllReduce, b: b})
}

// Flush blocks until every previously submitted op has completed on this
// rank's stream. It is a local barrier: pair it across ranks (every rank
// submits the same schedule, every rank flushes).
func (st *Stream) Flush() {
	st.submitMu.Lock()
	seq := st.submitted
	st.submitMu.Unlock()
	st.waitFor(seq)
}

// pendingOps returns the number of submitted ops not yet completed. It is
// advisory (racy by nature) and meant for tests and instrumentation.
func (st *Stream) pendingOps() int64 {
	st.submitMu.Lock()
	sub := st.submitted
	st.submitMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	return sub - st.completed
}

// completedOps returns the number of ops the worker has finished executing.
func (st *Stream) completedOps() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.completed
}
