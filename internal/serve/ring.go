package serve

import "sync"

// Record is one per-step metric sample: everything the training loop knows
// at an accumulation boundary, plus the wire- and allocation-side view of
// the same step. Wire counters are rank 0's cumulative comm.World.Stats —
// per-stream traffic included — so a reader can difference consecutive
// records for per-step volume.
type Record struct {
	// Step is the 1-based optimizer step that fired.
	Step int `json:"step"`
	// Loss is the boundary's mean local loss on rank 0.
	Loss float64 `json:"loss"`
	// GradNorm is the pre-clipping global gradient norm (0 when grad_clip
	// is off).
	GradNorm float64 `json:"grad_norm,omitempty"`
	// LossScale is the dynamic loss scale after this boundary, and
	// OverflowSteps the cumulative optimizer steps skipped on fp16
	// overflow (both 0 when the job's fp16_compute precision is off).
	LossScale     float64 `json:"loss_scale,omitempty"`
	OverflowSteps int     `json:"overflow_steps,omitempty"`
	// WireElems/WireBytes are rank 0's cumulative sent elements and native
	// dtype-accounted bytes.
	WireElems int64 `json:"wire_elems"`
	WireBytes int64 `json:"wire_bytes"`
	// PerStream maps ordering-domain name (default/grad/prefetch/...) to
	// cumulative elements sent on it by rank 0.
	PerStream map[string]int64 `json:"per_stream,omitempty"`
	// Allocs is the process-wide heap allocation count delta over the
	// step (mallocCounter: small objects count when their span leaves a
	// P's cache, so a step's figure can shift into a neighbour) — the
	// live view of the zero-allocation steady-state contract when one job
	// runs alone.
	Allocs uint64 `json:"allocs"`
}

// metricRing is a bounded, closeable metric buffer with follow semantics: one
// writer appends per-step records, any number of readers replay from a
// sequence cursor and block for more until the ring closes. Capacity
// bounds memory per job — a reader that falls more than capacity records
// behind skips forward to the oldest retained record (readers observe the
// gap via the record's Step field jumping). The buffer grows with the
// records, doubling up to capacity, so a short job holds what it logged.
type metricRing struct {
	mu       sync.Mutex
	cond     sync.Cond
	buf      []Record // seq i lives at buf[i % len(buf)]: buf[i] until full, circular after
	capacity int
	total    int64 // records ever appended; valid seqs are [total-len(buf), total)
	closed   bool
}

// newMetricRing creates a ring retaining the most recent capacity records.
func newMetricRing(capacity int) *metricRing {
	if capacity <= 0 {
		capacity = DefaultMetricRing
	}
	r := &metricRing{capacity: capacity}
	r.cond.L = &r.mu
	return r
}

// push adds a record, evicting the oldest when full, and wakes readers.
// Appending to a closed ring is a no-op (a cancelled job's last boundary
// may race its terminal transition).
func (r *metricRing) push(rec Record) {
	r.mu.Lock()
	if !r.closed {
		switch n := len(r.buf); {
		case n == r.capacity:
			r.buf[r.total%int64(n)] = rec
		case n == cap(r.buf):
			grown := make([]Record, n, min(max(2*n, 8), r.capacity))
			copy(grown, r.buf)
			r.buf = append(grown, rec)
		default:
			r.buf = append(r.buf, rec)
		}
		r.total++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// close marks the stream complete: blocked readers drain what is buffered
// and then see ok=false. Idempotent.
func (r *metricRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// isClosed reports whether the writer is done.
func (r *metricRing) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// appended returns how many records have ever been appended.
func (r *metricRing) appended() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// wake broadcasts to blocked readers so they re-poll their giveUp
// condition — the hook for context.AfterFunc on a streaming request.
func (r *metricRing) wake() { r.cond.Broadcast() }

// next returns the record at sequence cursor, blocking until it exists.
// A cursor older than the retention window skips forward to the oldest
// retained record. The returned next is the cursor for the following call.
// ok=false means no record: the ring closed and cursor is past the end,
// or giveUp returned true on a wake-up (pair with wake via
// context.AfterFunc to abort on client disconnect; pass nil to wait
// indefinitely).
func (r *metricRing) next(cursor int64, giveUp func() bool) (rec Record, next int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if oldest := max(r.total-int64(len(r.buf)), 0); cursor < oldest {
			cursor = oldest
		}
		if cursor < r.total {
			return r.buf[cursor%int64(len(r.buf))], cursor + 1, true
		}
		if r.closed || (giveUp != nil && giveUp()) {
			return Record{}, cursor, false
		}
		r.cond.Wait()
	}
}
