package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Rank-failure model. A real cluster loses a worker when its process dies:
// peers observe reset connections, not a polite goodbye. The in-process
// analogue is a closed per-rank death channel: every wire operation on a
// fault-enabled world selects on the death signal of the peer it is paired
// with (and of its own rank), so a blocked sender or receiver unblocks the
// moment either side dies, and panics a typed RankFailure instead of
// deadlocking mid-collective. Wire channels themselves are never closed —
// close-vs-send is a data race — and messages enqueued before a death are
// still drained first, so a rank's last completed sends are never lost.
//
// A rank that observes a peer death fail-stops: it marks itself dead before
// unwinding, which cascades the signal to its own stream workers and to
// peers blocked on it, so teardown (deferred Scheduler.Close et al) always
// drains. World.RunFallible converts the death panics into per-rank errors.
//
// Fault handling is opt-in per world (EnableFaultInjection, implied by
// RunFallible and failRank): worlds that never inject faults keep the
// select-free send/recv fast path.

// RankFailure is the panic value a collective raises when it observes a dead
// peer: a receive from (or send to) a rank whose wire channels were closed.
type RankFailure struct {
	Rank int // the rank that observed the failure
	Peer int // the peer whose death was observed
}

func (f RankFailure) Error() string {
	return fmt.Sprintf("comm: rank %d observed failure of rank %d", f.Rank, f.Peer)
}

// Killed is the panic value raised on a rank that is itself being killed by
// fault injection (Comm.Fail or an armed FailRankAfterOps trigger).
type Killed struct {
	Rank int
}

func (k Killed) Error() string {
	return fmt.Sprintf("comm: rank %d killed by fault injection", k.Rank)
}

// asRankDeath reports whether a recovered panic value is part of the
// rank-failure protocol (an injected Killed or an observed RankFailure) and
// returns it as an error. Any other panic value is a genuine bug and should
// be re-panicked.
func asRankDeath(r any) (error, bool) {
	switch v := r.(type) {
	case Killed:
		return v, true
	case RankFailure:
		return v, true
	}
	return nil, false
}

// faultState holds a world's fault-injection bookkeeping. Allocated lazily;
// the enabled flag is checked on the send hot path with one atomic load.
// dead is guarded by the world's mu; death[r] is closed (exactly once, under
// mu) when rank r dies.
type faultState struct {
	enabled atomic.Bool
	trigger []atomic.Int64 // per-rank countdown; <=0 means disarmed

	dead  []bool
	death []chan struct{} // death[r] closed when rank r dies
}

// EnableFaultInjection switches the world's wire layer into fault-tolerant
// mode: sends and receives select on peer death signals, so a dead rank
// surfaces as a RankFailure panic instead of a deadlock. Must be called
// before ranks start exchanging messages (RunFallible does it
// automatically); idempotent.
func (w *World) EnableFaultInjection() {
	w.mu.Lock()
	if w.faults == nil {
		fs := &faultState{
			trigger: make([]atomic.Int64, w.n),
			dead:    make([]bool, w.n),
			death:   make([]chan struct{}, w.n),
		}
		for r := range fs.death {
			fs.death[r] = make(chan struct{})
		}
		w.faults = fs
	}
	w.faults.enabled.Store(true)
	w.mu.Unlock()
}

// faultsOn reports whether fault injection is enabled (hot-path check).
func (w *World) faultsOn() bool {
	fs := w.faults
	return fs != nil && fs.enabled.Load()
}

// FailRankAfterOps arms a deterministic kill switch: the n-th wire operation
// (send or receive, counted across the rank's goroutines) performed by rank
// after this call panics Killed. n must be positive. Calling with a schedule
// that drives the rank's ops from a single goroutine (the usual test setup)
// makes the kill point exactly reproducible.
func (w *World) FailRankAfterOps(rank, n int) {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.n))
	}
	if n <= 0 {
		panic("comm: FailRankAfterOps count must be positive")
	}
	w.EnableFaultInjection()
	w.faults.trigger[rank].Store(int64(n))
}

// failRank marks rank dead and broadcasts its death signal. Peers blocked on
// a wire paired with the rank unblock immediately and panic RankFailure (any
// messages the rank enqueued before dying are drained first); operations on
// wires created later observe the death the same way. Idempotent.
func (w *World) failRank(rank int) {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.n))
	}
	w.EnableFaultInjection()
	w.mu.Lock()
	fs := w.faults
	if !fs.dead[rank] {
		fs.dead[rank] = true
		close(fs.death[rank])
	}
	w.mu.Unlock()
}

// rankDead reports whether rank has been marked dead.
func (w *World) rankDead(rank int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.faults != nil && w.faults.dead[rank]
}

// preOp runs the fault-injection countdown for one wire operation on rank.
// Called from send/recv only when fault injection is enabled.
func (w *World) preOp(rank int) {
	t := &w.faults.trigger[rank]
	if t.Load() > 0 && t.Add(-1) == 0 {
		w.failRank(rank)
		panic(Killed{Rank: rank})
	}
}

// sendWire is the fault-aware send path: deliver msg to group member dst, or
// observe a death. A send that fits the wire buffer always succeeds (real networks
// accept writes into the void too — the message is simply never consumed);
// only a *blocked* sender consults the death signals, so the fault machinery
// never changes healthy-world pairing.
func (c *Comm) sendWire(dst int, msg wireMsg) {
	ch, gdst := c.out[dst], c.global(dst)
	select {
	case ch <- msg:
		return
	default:
	}
	fs := c.w.faults
	select {
	case ch <- msg:
	case <-fs.death[gdst]:
		// Fail-stop: a collective interrupted by a peer death cannot
		// complete, so this rank dies too before unwinding — the signal
		// cascades to its own stream workers and to peers blocked on it,
		// keeping teardown (deferred Scheduler.Close et al) drainable.
		c.w.failRank(c.rank)
		panic(RankFailure{Rank: c.rank, Peer: gdst})
	case <-fs.death[c.rank]:
		// Another goroutine of this rank died (injected kill or observed
		// failure); abort this one as part of the same death.
		panic(Killed{Rank: c.rank})
	}
}

// recvWire is the fault-aware receive path. Messages already on the wire are
// always drained before a death is reported — including one racing the death
// signal — so a rank's last completed sends are never lost.
func (c *Comm) recvWire(src int) wireMsg {
	ch, gsrc := c.in[src], c.global(src)
	select {
	case msg := <-ch:
		return msg
	default:
	}
	fs := c.w.faults
	select {
	case msg := <-ch:
		return msg
	case <-fs.death[gsrc]:
		// The send of any message enqueued before the death signal
		// happens-before the close, so one final poll is decisive.
		select {
		case msg := <-ch:
			return msg
		default:
		}
		c.w.failRank(c.rank)
		panic(RankFailure{Rank: c.rank, Peer: gsrc})
	case <-fs.death[c.rank]:
		panic(Killed{Rank: c.rank})
	}
}

// Fail kills this communicator's rank: its wire channels close (peers
// observe the death) and the calling goroutine panics Killed, to be
// converted into an error by World.RunFallible. It never returns.
func (c *Comm) Fail() {
	c.w.failRank(c.rank)
	panic(Killed{Rank: c.rank})
}

// RunFallible is Run for worlds where ranks may die: it spawns one goroutine
// per rank, converts rank-death panics (injected kills and observed peer
// failures) into per-rank errors, and returns once every rank has either
// returned or died. errs[r] is nil for ranks that completed normally. When a
// rank dies, its wire channels are closed before its slot is recorded, so
// peers blocked on it cascade into RankFailure instead of deadlocking. Any
// panic outside the rank-failure protocol propagates (crashes) as usual.
func (w *World) RunFallible(fn func(c *Comm)) []error {
	w.EnableFaultInjection()
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err, ok := asRankDeath(rec)
					if !ok {
						panic(rec)
					}
					w.failRank(rank)
					errs[rank] = err
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	return errs
}

// FirstFailure returns the first non-nil error of a RunFallible result and
// the rank it occurred on, or (nil, -1) if every rank completed.
func FirstFailure(errs []error) (error, int) {
	for r, err := range errs {
		if err != nil {
			return err, r
		}
	}
	return nil, -1
}
