package comm

import (
	"errors"
	"testing"
	"time"
)

// runFallibleWithTimeout runs fn under Run and fails the test if the
// world does not quiesce — the deadlock these tests exist to rule out.
func runFallibleWithTimeout(t *testing.T, w *World, fn func(c *Comm)) []error {
	t.Helper()
	type result struct{ errs []error }
	ch := make(chan result, 1)
	go func() { ch <- result{w.Run(fn)} }()
	select {
	case r := <-ch:
		return r.errs
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: surviving ranks deadlocked instead of observing the failure")
		return nil
	}
}

// countDeaths splits a Run result into injected kills and observed
// peer failures.
func countDeaths(errs []error) (killed, observed, survived int) {
	for _, err := range errs {
		if err == nil {
			survived++
		} else if _, ok := errorsAsKilled(err); ok {
			killed++
		} else {
			observed++
		}
	}
	return
}

func errorsAsKilled(err error) (Killed, bool) {
	var k Killed
	ok := errors.As(err, &k)
	return k, ok
}

// TestFailRankUnblocksAllReduce kills one rank mid-allreduce loop and checks
// every surviving rank errors out with RankFailure instead of deadlocking.
func TestFailRankUnblocksAllReduce(t *testing.T) {
	const n = 4
	const victim = 2
	w := NewWorld(n)
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		buf := make([]float32, 64)
		for step := 0; ; step++ {
			if c.Rank() == victim && step == 3 {
				c.Fail()
			}
			for i := range buf {
				buf[i] = float32(c.Rank() + step + i)
			}
			c.AllReduce(buf)
			if step > 1000 {
				t.Errorf("rank %d ran %d steps without observing the kill", c.Rank(), step)
				return
			}
		}
	})
	k, ok := errorsAsKilled(errs[victim])
	if !ok || k.Rank != victim {
		t.Fatalf("victim error = %v, want Killed{%d}", errs[victim], victim)
	}
	killed, observed, survived := countDeaths(errs)
	if killed != 1 || observed != n-1 || survived != 0 {
		t.Fatalf("deaths = (killed %d, observed %d, survived %d), want (1, %d, 0): %v",
			killed, observed, survived, n-1, errs)
	}
}

// TestFailRankAfterOpsDeterministic arms the op-countdown trigger twice with
// the same schedule and checks the victim dies at the identical op both
// times (same surviving-rank error sets).
func TestFailRankAfterOpsDeterministic(t *testing.T) {
	run := func() ([]error, int) {
		w := NewWorld(4)
		w.FailRankAfterOps(1, 17)
		steps := 0
		errs := runFallibleWithTimeout(t, w, func(c *Comm) {
			buf := make([]float32, 8)
			for step := 0; step < 50; step++ {
				c.AllReduce(buf)
				if c.Rank() == 0 {
					steps = step
				}
			}
		})
		return errs, steps
	}
	errs1, _ := run()
	errs2, _ := run()
	for r := range errs1 {
		e1, e2 := errs1[r], errs2[r]
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("rank %d: nondeterministic death: run1 %v, run2 %v", r, e1, e2)
		}
		if e1 != nil && e1.Error() != e2.Error() {
			t.Fatalf("rank %d: run1 %q, run2 %q", r, e1, e2)
		}
	}
	if k, ok := errorsAsKilled(errs1[1]); !ok || k.Rank != 1 {
		t.Fatalf("rank 1 error = %v, want Killed{1}", errs1[1])
	}
}

// TestFailRankUnblocksStreams kills a rank whose collectives ride named
// streams: the surviving ranks' stream workers must capture the death, their
// Handle.Wait must re-panic it on the rank goroutine, and Scheduler.Close
// must still drain during teardown.
func TestFailRankUnblocksStreams(t *testing.T) {
	const n = 4
	const victim = 0
	w := NewWorld(n)
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		grad := s.Stream("grad")
		pf := s.Stream("prefetch")
		buf := make([]float32, 32)
		buf2 := make([]float32, 32)
		for step := 0; step < 200; step++ {
			if c.Rank() == victim && step == 5 {
				c.Fail()
			}
			h1 := grad.AllReduce(F32Buf(buf))
			h2 := pf.AllReduce(F32Buf(buf2))
			h1.Wait()
			h2.Wait()
		}
	})
	// The victim dies by injection; survivors die by observing the cascade —
	// either directly (RankFailure from a wire op) or via their own rank's
	// death signal raised by a stream worker (Killed). What matters is that
	// no rank survives and none deadlocks.
	if k, ok := errorsAsKilled(errs[victim]); !ok || k.Rank != victim {
		t.Fatalf("victim error = %v, want Killed{%d}", errs[victim], victim)
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d survived a world with a dead member: %v", r, errs)
		}
	}
}

// TestBarrierNilDistinctFromClose pins the property the failure detector
// depends on: Barrier's live nil payloads arrive with ok == true, while a
// closed wire yields ok == false — so a barrier passes right up until a real
// death.
func TestBarrierNilDistinctFromClose(t *testing.T) {
	w := NewWorld(3)
	// Barriers on a healthy world must pass.
	w.Run(func(c *Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
		}
	})
	// Now kill a rank; the next barrier must fail on survivors, not hang.
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 1 {
			c.Fail()
		}
		c.Barrier()
	})
	if errs[0] == nil || errs[2] == nil {
		t.Fatalf("survivors passed a barrier with a dead member: %v", errs)
	}
}

// TestInFlightMessagesDeliveredBeforeFailure checks buffered wire messages
// sent before a death are still received (the channel drains before ok goes
// false) — a rank's last completed sends are not lost.
func TestInFlightMessagesDeliveredBeforeFailure(t *testing.T) {
	w := NewWorld(2)
	payload := []float32{1, 2, 3}
	got := make(chan []float32, 1)
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, payload)
			c.Fail()
		}
		data := c.recv(0)
		got <- append([]float32(nil), data...)
		// The next receive observes the death.
		c.recv(0)
	})
	if errs[1] == nil {
		t.Fatal("rank 1 should observe rank 0's death on the second recv")
	}
	data := <-got
	for i, v := range payload {
		if data[i] != v {
			t.Fatalf("in-flight payload corrupted: got %v", data)
		}
	}
}

// TestRunFallibleCleanRun checks the runner's death containment is
// transparent for healthy worlds: every error nil, the collective's result
// unchanged.
func TestRunFallibleCleanRun(t *testing.T) {
	w := NewWorld(4)
	sums := make([]float32, 4)
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		buf := []float32{float32(c.Rank() + 1)}
		c.AllReduce(buf)
		sums[c.Rank()] = buf[0]
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed on a healthy run: %v", r, err)
		}
	}
	for r, s := range sums {
		if s != 10 {
			t.Fatalf("rank %d: allreduce sum = %v, want 10", r, s)
		}
	}
}

// TestRankDeadAndLazyChannels checks channels created after a death come
// back closed, so late stream creation cannot resurrect a dead wire.
func TestRankDeadAndLazyChannels(t *testing.T) {
	w := NewWorld(2)
	w.failRank(1)
	if !w.rankDead(1) || w.rankDead(0) {
		t.Fatalf("rankDead = (%v, %v), want (false, true)", w.rankDead(0), w.rankDead(1))
	}
	errs := runFallibleWithTimeout(t, w, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		s := NewScheduler(c)
		defer s.Close()
		h := s.Stream("late").Submit(func(sc *Comm) { sc.recv(1) })
		h.Wait()
	})
	if errs[0] == nil {
		t.Fatal("recv on a lazily created wire to a dead rank should fail")
	}
}
