package comm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// A stream must produce bitwise the same reductions as direct synchronous
// collectives: it only moves *when* the ring runs, never what it computes.
func TestStreamMatchesSyncCollectives(t *testing.T) {
	const n, elems = 4, 1000
	mk := func() [][]float32 {
		bufs := make([][]float32, n)
		r := rand.New(rand.NewSource(42))
		for i := range bufs {
			bufs[i] = make([]float32, elems)
			for j := range bufs[i] {
				bufs[i][j] = float32(r.NormFloat64())
			}
		}
		return bufs
	}

	syncBufs := mk()
	ws := NewWorld(n)
	ws.Run(func(c *Comm) {
		parts := Partition(elems, n)
		c.ReduceScatter(syncBufs[c.Rank()], parts)
		c.AllGather(syncBufs[c.Rank()], parts)
	})

	asyncBufs := mk()
	wa := NewWorld(n)
	wa.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		parts := Partition(elems, n)
		st.ReduceScatter(F32Buf(asyncBufs[c.Rank()]), parts)
		st.AllGather(F32Buf(asyncBufs[c.Rank()]), parts).Wait()
	})

	for r := 0; r < n; r++ {
		for j := range syncBufs[r] {
			if syncBufs[r][j] != asyncBufs[r][j] {
				t.Fatalf("rank %d elem %d: stream %v != sync %v", r, j, asyncBufs[r][j], syncBufs[r][j])
			}
		}
	}
}

// Handles complete in submission order within a stream, Flush is a
// completion barrier, and the counters add up.
func TestStreamFIFOAndFlush(t *testing.T) {
	const n, ops = 2, 50
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		var order []int
		var handles []Handle
		for i := 0; i < ops; i++ {
			i := i
			handles = append(handles, st.Submit(func(c *Comm) {
				c.Barrier() // real cross-rank op so the worker does wire work
				order = append(order, i)
			}))
		}
		st.Flush()
		if len(order) != ops {
			t.Errorf("rank %d: %d ops ran before Flush returned, want %d", c.Rank(), len(order), ops)
		}
		for i, v := range order {
			if v != i {
				t.Errorf("rank %d: op %d ran at position %d (order must be FIFO)", c.Rank(), v, i)
				break
			}
		}
		for i, h := range handles {
			if !h.Done() {
				t.Errorf("rank %d: handle %d not done after Flush", c.Rank(), i)
			}
			h.Wait() // must not block or panic after completion
		}
		if p := st.pendingOps(); p != 0 {
			t.Errorf("rank %d: %d ops pending after Flush", c.Rank(), p)
		}
		if got := st.completedOps(); got != ops {
			t.Errorf("rank %d: Completed() = %d, want %d", c.Rank(), got, ops)
		}
	})
}

// The whole point of a stream: the main goroutine may mutate buffer regions
// disjoint from in-flight ops. Run under -race to prove the overlap is
// data-race free.
func TestStreamOverlapsDisjointCompute(t *testing.T) {
	const n, elems, half = 2, 4096, 2048
	bufs := make([][]float32, n)
	for i := range bufs {
		bufs[i] = make([]float32, elems)
		for j := range bufs[i] {
			bufs[i][j] = 1
		}
	}
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		x := bufs[c.Rank()]
		// Reduce the first half while "computing" into the second half.
		st.ReduceScatter(F32Buf(x[:half]), Partition(half, n))
		h := st.AllGather(F32Buf(x[:half]), Partition(half, n))
		for j := half; j < elems; j++ {
			x[j] *= 2
		}
		h.Wait()
		// Now reduce the second half too.
		st.ReduceScatter(F32Buf(x[half:]), Partition(half, n))
		st.AllGather(F32Buf(x[half:]), Partition(half, n)).Wait()
	})
	for r := 0; r < n; r++ {
		if bufs[r][0] != n {
			t.Errorf("rank %d: first half = %v, want %v", r, bufs[r][0], float32(n))
		}
		if bufs[r][elems-1] != 2*n {
			t.Errorf("rank %d: second half = %v, want %v", r, bufs[r][elems-1], float32(2*n))
		}
	}
}

// Distinct streams are independent ordering domains: ops submitted in
// opposite relative order on different ranks still pair correctly, because
// pairing is per-stream. (With a single shared FIFO this schedule would
// deadlock or scramble.) Run under -race.
func TestStreamsAreIndependentOrderingDomains(t *testing.T) {
	const n, elems = 4, 512
	a := make([][]float32, n)
	b := make([][]float32, n)
	for i := range a {
		a[i] = make([]float32, elems)
		b[i] = make([]float32, elems)
		for j := range a[i] {
			a[i][j] = float32(i + 1)
			b[i][j] = float32(10 * (i + 1))
		}
	}
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		grad := s.Stream("grad")
		pf := s.Stream("prefetch")
		// Even ranks submit grad first, odd ranks prefetch first: the
		// cross-stream submission interleaving differs per rank, the
		// per-stream order does not.
		var h1, h2 Handle
		if c.Rank()%2 == 0 {
			h1 = grad.AllReduce(F32Buf(a[c.Rank()]))
			h2 = pf.AllReduce(F32Buf(b[c.Rank()]))
		} else {
			h2 = pf.AllReduce(F32Buf(b[c.Rank()]))
			h1 = grad.AllReduce(F32Buf(a[c.Rank()]))
		}
		h1.Wait()
		h2.Wait()
	})
	wantA := float32(n * (n + 1) / 2)
	wantB := 10 * wantA
	for r := 0; r < n; r++ {
		if a[r][0] != wantA || a[r][elems-1] != wantA {
			t.Errorf("rank %d: grad-stream sum = %v, want %v", r, a[r][0], wantA)
		}
		if b[r][0] != wantB || b[r][elems-1] != wantB {
			t.Errorf("rank %d: prefetch-stream sum = %v, want %v", r, b[r][0], wantB)
		}
	}
}

// A stream must survive many submit/wait cycles (one per training step).
func TestStreamReuseAcrossSteps(t *testing.T) {
	const n, steps = 3, 20
	var total atomic.Int64
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		x := make([]float32, 99)
		for i := 0; i < steps; i++ {
			for j := range x {
				x[j] = 1
			}
			st.ReduceScatter(F32Buf(x), Partition(len(x), n)).Wait()
			total.Add(1)
		}
	})
	if got := total.Load(); got != n*steps {
		t.Errorf("completed %d step waits, want %d", got, n*steps)
	}
}

// A full submission queue is backpressure: a capacity-1 stream still
// completes an arbitrarily long schedule (submission blocks the producer,
// never drops or reorders), and Stream gives new streams the default depth.
func TestQueueDepthOptionAndBackpressure(t *testing.T) {
	const n, ops = 2, 40
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		if d := cap(s.Stream("wide").ops); d != defaultQueueDepth {
			t.Errorf("rank %d: depth = %d, want default %d", c.Rank(), d, defaultQueueDepth)
		}
		st := s.stream("tiny", 1)
		x := []float32{1}
		var last Handle
		for i := 0; i < ops; i++ {
			last = st.AllReduce(F32Buf(x)) // blocks on the full queue, must not deadlock
		}
		last.Wait()
		if got := st.completedOps(); got != ops {
			t.Errorf("rank %d: completed %d ops on depth-1 stream, want %d", c.Rank(), got, ops)
		}
	})
}

// Two schedulers claiming the same stream name on the same rank would share
// wire channels; the second claim must panic instead.
func TestDuplicateStreamNamePanics(t *testing.T) {
	w := NewWorld(1)
	c := w.Comm(0)
	s1 := NewScheduler(c)
	defer s1.Close()
	s1.Stream("grad")
	if s1.Stream("grad") == nil {
		t.Fatal("get-or-create within one scheduler must return the stream")
	}
	s2 := NewScheduler(c)
	defer s2.Close()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate stream name across schedulers")
		}
	}()
	s2.Stream("grad")
}

// After Close, the name is released and a fresh scheduler may reuse it.
func TestCloseReleasesStreamNames(t *testing.T) {
	w := NewWorld(1)
	c := w.Comm(0)
	s1 := NewScheduler(c)
	s1.Stream("grad")
	s1.Close()
	s1.Close() // double Close is a no-op
	s2 := NewScheduler(c)
	defer s2.Close()
	s2.Stream("grad") // must not panic
}

// Stats and resetStats are safe while streams are live: harness goroutines
// may poll mid-flight (run under -race), and a Scheduler.Barrier quiesce
// makes reset/read exact.
func TestStatsSafeWithLiveStreams(t *testing.T) {
	const n, elems, rounds = 2, 256, 30
	w := NewWorld(n)
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() { // harness goroutine polling while collectives are in flight
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.Stats(0)
				_ = w.TotalElemsSent()
			}
		}
	}()
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		x := make([]float32, elems)
		for i := 0; i < rounds; i++ {
			st.AllReduce(F32Buf(x))
		}
		// Quiesce, then reset: afterwards the counters are exactly zero on
		// every rank even though the streams still exist.
		s.Barrier()
		c.Barrier() // all ranks quiesced before any rank resets
		if c.Rank() == 0 {
			w.resetStats()
		}
		c.Barrier()
		st.AllReduce(F32Buf(x))
		s.Barrier()
	})
	close(stop)
	poll.Wait()
	// Post-reset traffic is exactly one allreduce per rank.
	want := 2 * int64(elems) * int64(n-1) / int64(n)
	for r := 0; r < n; r++ {
		st := w.Stats(r)
		// The reset happens between two barriers, but the second barrier's
		// own messages land after it — subtract the dissemination rounds
		// (nil payloads, 0 elems) by checking elems only.
		if st.ElemsSent != want {
			t.Errorf("rank %d: %d elems after quiesced reset, want %d", r, st.ElemsSent, want)
		}
	}
}

// Native byte accounting: an F16 buffer moves 2 bytes per element on the
// wire, an F32 buffer 4 — measured by Stats, not inferred.
func TestBufferDTypeByteAccounting(t *testing.T) {
	const n, elems = 4, 1200
	run := func(d DType) Stats {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			s := NewScheduler(c)
			defer s.Close()
			x := make([]float32, elems)
			s.Stream("grad").AllGather(Buffer{Data: x, DType: d}, Partition(elems, n)).Wait()
		})
		return w.Stats(0)
	}
	f32 := run(F32)
	f16 := run(F16)
	if f32.ElemsSent != f16.ElemsSent {
		t.Fatalf("element counts must be dtype-independent: %d vs %d", f32.ElemsSent, f16.ElemsSent)
	}
	if want := f32.ElemsSent * 4; f32.BytesSent != want {
		t.Errorf("F32 bytes = %d, want %d", f32.BytesSent, want)
	}
	if want := f16.ElemsSent * 2; f16.BytesSent != want {
		t.Errorf("F16 bytes = %d, want %d", f16.BytesSent, want)
	}
	if f16.PerStream["grad"] != f16.ElemsSent {
		t.Errorf("PerStream[grad] = %d, want %d", f16.PerStream["grad"], f16.ElemsSent)
	}
}

// A scheduler over a laid-out view runs its streams' all-reduces two-level,
// like the flat collectives: same sums, dtype-accurate bytes, intra/inter
// split intact.
func TestStreamHierarchicalAllReduce(t *testing.T) {
	const n, nodeSize, elems = 8, 4, 300
	bufs := make([][]float32, n)
	for i := range bufs {
		bufs[i] = make([]float32, elems)
		for j := range bufs[i] {
			bufs[i][j] = float32(i + 1)
		}
	}
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(nodesOf(c, nodeSize))
		defer s.Close()
		s.Stream("grad").AllReduce(F16Buf(bufs[c.Rank()])).Wait()
	})
	want := float32(n * (n + 1) / 2)
	for r := 0; r < n; r++ {
		if bufs[r][0] != want || bufs[r][elems-1] != want {
			t.Errorf("rank %d: hierarchical sum = %v, want %v", r, bufs[r][0], want)
		}
	}
	st := w.Stats(0)
	if st.PerGroup["hier-intra"].Elems == 0 || st.PerGroup["hier-inter"].Elems == 0 {
		t.Error("intra/inter accounting split missing on the stream path")
	}
	if st.BytesSent != 2*st.ElemsSent {
		t.Errorf("F16 hierarchical: %d bytes for %d elems, want 2 B/elem", st.BytesSent, st.ElemsSent)
	}
}

// Buffer.Bytes is the wire size at the buffer's dtype: 2 B/elem for F16,
// 4 for F32.
func TestBufferBytes(t *testing.T) {
	x := []float32{1.0002441, 0.1, -3.14159}
	if F16Buf(x).Bytes() != int64(2*len(x)) || F32Buf(x).Bytes() != int64(4*len(x)) {
		t.Error("Buffer.Bytes wrong")
	}
}
