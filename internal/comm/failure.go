package comm

import (
	"fmt"
	"sync/atomic"
)

// Rank-failure model. A real cluster loses a worker when its process dies:
// peers observe reset connections, not a polite goodbye. The in-process
// analogue is a closed per-rank death channel: every wire operation selects
// on the death signal of the peer it is paired with (and of its own rank),
// so a blocked sender or receiver unblocks the moment either side dies, and
// panics a typed RankFailure instead of deadlocking mid-collective. Wire
// channels themselves are never closed — close-vs-send is a data race — and
// messages enqueued before a death are still drained first, so a rank's
// last completed sends are never lost.
//
// A rank that observes a peer death fail-stops: it marks itself dead before
// unwinding, which cascades the signal to its own stream workers and to
// peers blocked on it, so teardown (deferred Scheduler.Close et al) always
// drains. World.Run converts the death panics into per-rank errors.

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

// faultState holds a world's rank-failure bookkeeping, built by NewWorld.
// dead is guarded by the world's mu; death[r] is closed (exactly once, under
// mu) when rank r dies.
type faultState struct {
	trigger []atomic.Int64 // per-rank countdown; <=0 means disarmed

	dead  []bool
	death []chan struct{} // death[r] closed when rank r dies
}

func newFaultState(n int) faultState {
	fs := faultState{
		trigger: make([]atomic.Int64, n),
		dead:    make([]bool, n),
		death:   make([]chan struct{}, n),
	}
	for r := range fs.death {
		fs.death[r] = make(chan struct{})
	}
	return fs
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
	w.faults.trigger[rank].Store(int64(n))
}

// failRank marks rank dead and broadcasts its death signal. Peers blocked on
// a wire paired with the rank unblock immediately and panic RankFailure (any
// messages the rank enqueued before dying are drained first); operations on
// wires created later observe the death the same way. Idempotent: it
// reports whether the rank was already dead.
func (w *World) failRank(rank int) (wasDead bool) {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.n))
	}
	w.mu.Lock()
	fs := &w.faults
	wasDead = fs.dead[rank]
	if !wasDead {
		fs.dead[rank] = true
		close(fs.death[rank])
	}
	w.mu.Unlock()
	return wasDead
}

// rankDead reports whether rank has been marked dead.
func (w *World) rankDead(rank int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.faults.dead[rank]
}

// preOp runs the fault-injection countdown for one wire operation on rank.
func (w *World) preOp(rank int) {
	t := &w.faults.trigger[rank]
	if t.Load() > 0 && t.Add(-1) == 0 {
		w.failRank(rank)
		panic(Killed{Rank: rank})
	}
}

// sendWire is the send path: deliver msg to group member dst, or observe a
// death. A send that fits the wire buffer always succeeds (real networks
// accept writes into the void too — the message is simply never consumed);
// only a *blocked* sender consults the death signals, so the fault
// machinery never changes healthy-world pairing.
func (c *Comm) sendWire(dst int, msg wireMsg) {
	ch, gdst := c.out[dst], c.global(dst)
	select {
	case ch <- msg:
		return
	default:
	}
	fs := &c.w.faults
	select {
	case ch <- msg:
	case <-fs.death[gdst]:
		panic(c.peerDied(gdst))
	case <-fs.death[c.rank]:
		// Another goroutine of this rank died (injected kill or observed
		// failure); abort this one as part of the same death.
		panic(Killed{Rank: c.rank})
	}
}

// recvWire is the receive path. Messages already on the wire are always
// drained before a death is reported — including one racing the death
// signal — so a rank's last completed sends are never lost.
func (c *Comm) recvWire(src int) wireMsg {
	ch, gsrc := c.in[src], c.global(src)
	select {
	case msg := <-ch:
		return msg
	default:
	}
	fs := &c.w.faults
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
		panic(c.peerDied(gsrc))
	case <-fs.death[c.rank]:
		panic(Killed{Rank: c.rank})
	}
}

// peerDied fail-stops this rank on the death of peer and returns the value
// to panic with: a collective interrupted by a peer death cannot complete,
// so the rank dies too before unwinding — the signal cascades to its own
// stream workers and to peers blocked on it, keeping teardown (deferred
// Scheduler.Close et al) drainable. A rank that was already dead reports
// its own Killed instead, so the rank a kill struck reports the kill, not
// the cascade it started.
func (c *Comm) peerDied(peer int) error {
	if c.w.failRank(c.rank) {
		return Killed{Rank: c.rank}
	}
	return RankFailure{Rank: c.rank, Peer: peer}
}

// Fail kills this communicator's rank: its death signal closes (peers
// observe the death) and the calling goroutine panics Killed, to be
// converted into an error by World.Run. It never returns.
func (c *Comm) Fail() {
	c.w.failRank(c.rank)
	panic(Killed{Rank: c.rank})
}
