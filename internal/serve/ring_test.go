package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func rec(step int) Record { return Record{Step: step, Loss: float64(step)} }

// Appends within capacity replay in order from cursor 0.
func TestRingReplayInOrder(t *testing.T) {
	r := newMetricRing(4)
	for s := 1; s <= 3; s++ {
		r.push(rec(s))
	}
	r.close()
	var cursor int64
	for s := 1; s <= 3; s++ {
		got, next, ok := r.next(cursor, nil)
		if !ok || got.Step != s {
			t.Fatalf("Next(%d) = (%+v, %v), want step %d", cursor, got, ok, s)
		}
		cursor = next
	}
	if _, _, ok := r.next(cursor, nil); ok {
		t.Error("closed, drained ring should report !ok")
	}
}

// Overflow evicts the oldest records; a stale cursor clamps forward to the
// oldest retained record instead of re-reading evicted slots.
func TestRingEvictionClampsCursor(t *testing.T) {
	r := newMetricRing(4)
	for s := 1; s <= 10; s++ {
		r.push(rec(s))
	}
	got, next, ok := r.next(0, nil) // steps 1..6 are gone
	if !ok || got.Step != 7 {
		t.Fatalf("Next(0) = (%+v, %v), want clamped to step 7", got, ok)
	}
	if next != 7 {
		t.Errorf("next cursor = %d, want 7", next)
	}
	if r.appended() != 10 {
		t.Errorf("appended = %d, want 10", r.appended())
	}
}

// A reader at the head blocks until the next Append, and Close releases
// blocked readers with !ok.
func TestRingFollowAndClose(t *testing.T) {
	r := newMetricRing(4)
	r.push(rec(1))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, next, ok := r.next(1, nil) // head: blocks until step 2 arrives
		if !ok || got.Step != 2 {
			t.Errorf("follow read = (%+v, %v), want step 2", got, ok)
		}
		if _, _, ok := r.next(next, nil); ok {
			t.Error("read after Close should report !ok")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	r.push(rec(2))
	time.Sleep(10 * time.Millisecond)
	r.close()
	wg.Wait()

	if !r.isClosed() {
		t.Error("Closed() = false after Close")
	}
	r.push(rec(3)) // no-op
	if r.appended() != 2 {
		t.Errorf("push after close changed the count to %d", r.appended())
	}
}

// The follow path an HTTP metrics stream rides — Append then Next at the
// head — allocates nothing per record: 256 append+read pairs on a warm
// ring, counted under testing.AllocsPerRun, must be exactly 0.
func TestRingFollowAllocatesNothing(t *testing.T) {
	const pairs = 256
	r := newMetricRing(1024)
	rec := Record{Loss: 2.5, GradNorm: 1.25, WireElems: 1 << 20, WireBytes: 4 << 20}
	var cursor int64
	allocs := testing.AllocsPerRun(20, func() {
		for p := 0; p < pairs; p++ {
			rec.Step++
			r.push(rec)
			got, next, ok := r.next(cursor, nil)
			if !ok || got.Step != rec.Step {
				t.Fatalf("Next(%d) = (step %d, %v), want step %d", cursor, got.Step, ok, rec.Step)
			}
			cursor = next
		}
	})
	if allocs != 0 {
		t.Errorf("%d append+follow pairs allocate %.1f objects, want 0", pairs, allocs)
	}
}

// The giveUp hook aborts a blocked reader when woken — the client-gone
// path: context.AfterFunc calls Wake, the reader re-checks and returns.
func TestRingGiveUpOnWake(t *testing.T) {
	r := newMetricRing(4)
	var mu sync.Mutex
	gone := false
	giveUp := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gone
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, ok := r.next(0, giveUp); ok {
			t.Error("gave-up reader should report !ok")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	gone = true
	mu.Unlock()
	r.wake()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wake did not release the blocked reader")
	}
}

var mallocSink []byte

// The per-step record's allocation counter reads what MemStats.Mallocs
// sums without stopping the world. Right after ReadMemStats has flushed
// every P's cache the two agree (retried, in case a background goroutine
// allocates between the reads), and k allocations move it by at least k —
// large ones, which the runtime counts as they happen, where a small one
// counts when its span leaves the cache.
func TestMallocCounterMatchesMemStats(t *testing.T) {
	mc := newMallocCounter()
	var ms runtime.MemStats
	var got uint64
	for try := 0; try < 10; try++ {
		runtime.ReadMemStats(&ms)
		if got = mc.read(); got == ms.Mallocs {
			break
		}
	}
	if got != ms.Mallocs {
		t.Fatalf("mallocCounter read %d right after MemStats.Mallocs = %d", got, ms.Mallocs)
	}
	const k = 8
	before := mc.read()
	for i := 0; i < k; i++ {
		mallocSink = make([]byte, 64<<10)
	}
	if d := mc.read() - before; d < k {
		t.Errorf("%d allocations moved mallocCounter by %d, want ≥ %d", k, d, k)
	}
}
