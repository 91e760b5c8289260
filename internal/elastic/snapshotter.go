// Package elastic is the asynchronous boundary snapshotter: periodic
// zero.Snapshots of a running world taken over the "checkpoint" stream and
// persisted as ckpt-<step>.zelc files in the policy's directory. The file
// is the only recovery medium: the snapshotter reports the path of the
// newest one it wrote (Newest), and a restart reads that file.
//
// The snapshots are elastic as they are. ZeRO's state layout makes
// elasticity mechanical (the paper's partitioning argument run
// backwards): optimizer state, master parameters and the gradient
// accumulator are exact Ψ/N partitions of flat buffers, so the slabs a
// zero.Snapshot gathers from world size N restore at any world size M —
// Trainer.Load copies each range of its domain out of the slabs that hold
// it. The restored state is bitwise at any M; at M == N the resumed
// trajectory is bitwise too, and across N↔M it differs only within
// reduction-tree tolerance (the same caveat as cross-topology runs).
//
// Surface: NewSnapshotter builds a Snapshotter from a Policy; Tick, Flush,
// Close, Newest, Count and StallNs drive and read it. Imported by
// internal/serve (the job supervisor) and bench.
package elastic

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/zero"
)

// Policy configures periodic snapshotting.
type Policy struct {
	// Every takes a snapshot when Tick's step is a multiple of Every.
	// Every <= 0 disables Tick (take still works).
	Every int
	// Dir is where rank 0 persists encoded snapshots (ckpt-<step>.zelc,
	// written via a temp file + atomic rename). Required.
	Dir string
	// Keep bounds how many checkpoint files at or below the step just
	// written stay in Dir; older ones are pruned after each write. <= 0
	// keeps all.
	Keep int
}

// Snapshotter takes asynchronous, double-buffered snapshots of a running
// world. Each rank calls Tick on its own goroutine right after an optimizer
// step; the capture is a local memcpy of the rank's Ψ/N shard, and the
// gather to rank 0 rides the "checkpoint" stream so training continues while
// the snapshot is in flight. Two capture buffers alternate per rank: a Tick
// only stalls if the snapshot from two Ticks ago is still on the wire, and
// that stall is measured (StallNs) rather than hidden.
//
// Tick is a collective: every rank must call it with the same step sequence,
// or the checkpoint stream's gathers desynchronize.
type Snapshotter struct {
	pol   Policy
	slots []rankSlot

	count   atomic.Int64
	stallNs atomic.Int64

	writeCh   chan writeReq
	writerWG  sync.WaitGroup
	closeOnce sync.Once
	err       error  // the writer's first failure; read after it exits
	newest    string // the last file it renamed into place; likewise
}

// rankSlot is one rank's double buffer. All fields are touched only by that
// rank's goroutine.
type rankSlot struct {
	slab    [2][]float32 // CaptureShard slabs
	pending [2]comm.Handle
	cur     int
}

type writeReq struct {
	step int
	snap *zero.Snapshot
}

// NewSnapshotter builds a snapshotter for an n-rank world: pol.Dir is
// created if missing and a writer goroutine is started.
func NewSnapshotter(pol Policy, n int) (*Snapshotter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("elastic: snapshotter for world size %d", n)
	}
	if pol.Dir == "" {
		return nil, fmt.Errorf("elastic: snapshotter without a directory")
	}
	if err := os.MkdirAll(pol.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("elastic: snapshot dir: %w", err)
	}
	s := &Snapshotter{
		pol:     pol,
		slots:   make([]rankSlot, n),
		writeCh: make(chan writeReq, 2),
	}
	s.writerWG.Add(1)
	go s.writer()
	return s, nil
}

// Tick snapshots when step is a multiple of the policy's Every. Collective
// across ranks (same step sequence everywhere).
func (s *Snapshotter) Tick(step int, tr *zero.Trainer) {
	if s.pol.Every <= 0 || step <= 0 || step%s.pol.Every != 0 {
		return
	}
	s.take(step, tr)
}

// take takes a snapshot unconditionally. Collective across ranks. Legal
// mid-accumulation: the capture includes the pending gradient accumulator.
func (s *Snapshotter) take(step int, tr *zero.Trainer) {
	r := tr.Comm().Rank()
	sl := &s.slots[r]
	i := sl.cur & 1
	// Reusing this buffer requires its previous snapshot to be off the
	// wire. Any wait here is the snapshotter's only exposure to the
	// training loop — account for it.
	if h := sl.pending[i]; h.Valid() && !h.Done() {
		t0 := time.Now()
		h.Wait()
		s.stallNs.Add(time.Since(t0).Nanoseconds())
	}
	slab, hdr := tr.CaptureShard(sl.slab[i][:0])
	sl.slab[i] = slab
	sl.pending[i] = tr.Scheduler().Stream(zero.StreamCheckpoint).Submit(func(c *comm.Comm) {
		if r == 0 {
			// The snapshot keeps rank 0's slab, and this buffer is reused
			// two ticks on: copy it here, off the training loop.
			slab = slices.Clone(slab)
		}
		snap := zero.GatherSnapshot(c, hdr, slab)
		if snap == nil {
			return
		}
		s.count.Add(1)
		s.writeCh <- writeReq{step: step, snap: snap}
	})
	sl.cur++
}

// Flush blocks the calling rank until its in-flight snapshots are off the
// wire. Call it before the rank's world body returns, so no gather is left
// pending when the scheduler shuts down.
func (s *Snapshotter) Flush(rank int) {
	sl := &s.slots[rank]
	for i := range sl.pending {
		if sl.pending[i].Valid() {
			sl.pending[i].Wait()
			sl.pending[i] = comm.Handle{}
		}
	}
}

// Close stops the writer (flushing queued writes) and reports its first
// error. Call after the world has finished running.
func (s *Snapshotter) Close() error {
	s.closeOnce.Do(func() {
		close(s.writeCh)
		s.writerWG.Wait()
	})
	return s.err
}

// Newest returns the path of the newest checkpoint file the writer renamed
// into place ("" before the first). Call it after Close: a restart
// resumes from this file, so it covers every snapshot that was gathered.
func (s *Snapshotter) Newest() string { return s.newest }

// Count returns how many snapshots have been gathered.
func (s *Snapshotter) Count() int64 { return s.count.Load() }

// StallNs returns the cumulative wall time Ticks spent blocked on in-flight
// snapshots — the snapshotter's total exposed stall.
func (s *Snapshotter) StallNs() int64 { return s.stallNs.Load() }

// writer persists snapshots: stream each to a temp file, rename it into
// place (readers never observe a torn file), prune to the retention bound.
func (s *Snapshotter) writer() {
	defer s.writerWG.Done()
	for req := range s.writeCh {
		path := filepath.Join(s.pol.Dir, checkpointName(req.step))
		_, err := req.snap.WriteFile(path)
		if err == nil {
			s.newest = path
			err = s.prune(path)
		}
		if err != nil && s.err == nil {
			s.err = err
		}
	}
}

// prune removes the oldest checkpoints below newest's step until Keep
// remain, newest included. Files at higher steps are an earlier run's in
// the same directory, not this run's to prune.
func (s *Snapshotter) prune(newest string) error {
	if s.pol.Keep <= 0 {
		return nil
	}
	files, err := listCheckpoints(s.pol.Dir)
	if err != nil {
		return err
	}
	for older := files[:sort.SearchStrings(files, newest)]; len(older) >= s.pol.Keep; older = older[1:] {
		if err := os.Remove(older[0]); err != nil {
			return err
		}
	}
	return nil
}

func checkpointName(step int) string {
	return fmt.Sprintf("ckpt-%09d.zelc", step)
}

// listCheckpoints returns the checkpoint files in dir, oldest step first.
func listCheckpoints(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.zelc"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}
