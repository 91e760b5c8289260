// Package elastic is the asynchronous boundary snapshotter: periodic
// zero.Snapshots of a running world, each written as a ckpt-<step>.zelc file
// in the policy's directory by the ranks together, on the "checkpoint"
// stream. Every rank writes its own slab into the file; rank 0 writes the
// header and seals the file with the ranks' folded checksums, and no slab
// crosses the wire (zero.WriteSnapshotFile). The file is the only recovery
// medium: the snapshotter reports the path of the newest one written
// (Newest), and a restart reads that file.
//
// The snapshots are elastic as they are. ZeRO's state layout makes
// elasticity mechanical (the paper's partitioning argument run
// backwards): optimizer state, master parameters and the gradient
// accumulator are exact Ψ/N partitions of flat buffers, so the slabs a
// world of size N writes restore at any world size M — Trainer.Load copies
// each range of its domain out of the slabs that hold it. The restored
// state is bitwise at any M; at M == N the resumed trajectory is bitwise
// too, and across N↔M it differs only within reduction-tree tolerance (the
// same caveat as cross-topology runs).
//
// Surface: NewSnapshotter builds a Snapshotter from a Policy; Tick, Flush,
// Close, Newest, Count and StallNs drive and read it. Imported by
// internal/serve (the job supervisor) and bench.
package elastic

import (
	"fmt"
	"os"
	"path/filepath"
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
	// Dir is where the snapshots are written (ckpt-<step>.zelc, each via a
	// temp file and an atomic rename). Required.
	Dir string
	// Keep bounds how many checkpoint files stay in Dir: the oldest are
	// pruned after each write. <= 0 keeps all.
	Keep int
}

// Snapshotter takes asynchronous, double-buffered snapshots of a running
// world. Each rank calls Tick on its own goroutine right after an optimizer
// step; the capture is a local memcpy of the rank's Ψ/N shard, and the
// rank's write of it into the file rides the "checkpoint" stream, so
// training continues while the snapshot is written. Two capture buffers
// alternate per rank: a Tick only stalls if the write from two Ticks ago is
// still running, and that stall is measured (StallNs) rather than hidden.
//
// Tick is a collective: every rank must call it with the same step sequence,
// or the checkpoint stream's reports to rank 0 desynchronize.
type Snapshotter struct {
	pol   Policy
	slots []rankSlot

	count   atomic.Int64
	stallNs atomic.Int64

	mu     sync.Mutex
	err    error  // the first failed write or prune
	newest string // the last file renamed into place
}

// rankSlot is one rank's double buffer. All fields are touched only by that
// rank's goroutine.
type rankSlot struct {
	slab    [2][]float32 // CaptureShard slabs
	pending [2]comm.Handle
	cur     int
}

// NewSnapshotter builds a snapshotter for an n-rank world; pol.Dir is
// created if missing.
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
	return &Snapshotter{pol: pol, slots: make([]rankSlot, n)}, nil
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
	// Reusing this buffer requires its previous snapshot to be written.
	// Any wait here is the snapshotter's only exposure to the training
	// loop — account for it.
	if h := sl.pending[i]; h.Valid() && !h.Done() {
		t0 := time.Now()
		h.Wait()
		s.stallNs.Add(time.Since(t0).Nanoseconds())
	}
	slab, hdr := tr.CaptureShard(sl.slab[i][:0])
	sl.slab[i] = slab
	sl.pending[i] = tr.Scheduler().Stream(zero.StreamCheckpoint).Submit(func(c *comm.Comm) {
		path := filepath.Join(s.pol.Dir, checkpointName(step))
		_, err := zero.WriteSnapshotFile(c, path, hdr, slab)
		if err == nil && r == 0 {
			s.count.Add(1)
			err = s.wrote(path)
		}
		if err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	})
	sl.cur++
}

// Flush blocks the calling rank until its in-flight snapshots are written.
// Call it before the rank's world body returns, so no write is left
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

// Close reports the first failed write or prune. Call it after the world
// has finished running.
func (s *Snapshotter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Newest returns the path of the newest checkpoint file renamed into place
// ("" before the first). Call it after Close: a restart resumes from this
// file, so it covers every snapshot that was written.
func (s *Snapshotter) Newest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newest
}

// Count returns how many snapshots have been written.
func (s *Snapshotter) Count() int64 { return s.count.Load() }

// StallNs returns the cumulative wall time Ticks spent blocked on in-flight
// snapshots — the snapshotter's total exposed stall.
func (s *Snapshotter) StallNs() int64 { return s.stallNs.Load() }

// wrote records the file rank 0 just renamed into place as the newest and
// prunes the oldest checkpoints until Keep remain, newest included.
func (s *Snapshotter) wrote(newest string) error {
	s.mu.Lock()
	s.newest = newest
	s.mu.Unlock()
	if s.pol.Keep <= 0 {
		return nil
	}
	files, err := listCheckpoints(s.pol.Dir)
	if err != nil {
		return err
	}
	for _, old := range files[:max(len(files)-s.pol.Keep, 0)] {
		if err := os.Remove(old); err != nil {
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
