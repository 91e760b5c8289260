package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

// Scheduler admits jobs through strict validation, queues them FIFO, and
// runs at most MaxWorlds of them concurrently — each in its own freshly
// built comm.World, so jobs share nothing but the process: rank
// goroutines, wire channels, traffic counters and the wire-buffer arena
// are all per-job. Cancellation is context-based and lands at the next
// accumulation boundary via the engine's collective stop vote; a
// cancelled running job checkpoints before it stops, and every final
// checkpoint is a file the job's ranks write together, each its own slab:
// <dir>/<job-id>/final.zelc.
type Scheduler struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup // one entry per worker

	// dir holds the final checkpoints: cfg.SnapshotDir, or — when that is
	// empty — a private temp directory that Drain removes once the
	// workers have exited (private is then true).
	dir     string
	private bool

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for list
	draining bool
	seq      int
}

// NewScheduler starts a scheduler with cfg.MaxWorlds worker goroutines.
// Without a SnapshotDir it creates the private directory final
// checkpoints go to. Call Drain to stop it.
func NewScheduler(cfg Config) (*Scheduler, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:   norm,
		queue: make(chan *Job, norm.QueueDepth),
		jobs:  make(map[string]*Job),
		dir:   norm.SnapshotDir,
	}
	if s.dir == "" {
		if s.dir, err = os.MkdirTemp("", "zeroserve-"); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
		s.private = true
	} else {
		s.seq = lastJobSeq(s.dir)
	}
	for i := 0; i < norm.MaxWorlds; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// lastJobSeq returns the highest n of the job-<n> entries in dir (0 when
// there are none, or no dir yet), so a daemon over a persistent
// SnapshotDir numbers its jobs after those of the daemons before it rather
// than writing into their directories.
func lastJobSeq(dir string) int {
	names, _ := filepath.Glob(filepath.Join(dir, "job-*")) // the pattern is valid; Glob skips unreadable dirs
	last := 0
	for _, name := range names {
		if n, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(name), "job-")); err == nil {
			last = max(last, n)
		}
	}
	return last
}

// Submit validates the spec and admits it to the FIFO queue. The config
// error (one of the engine's Err* sentinels) or ErrSpec comes back for
// invalid submissions; ErrQueueFull under backpressure; ErrDraining after
// shutdown began. The returned job is already registered and observable.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	j, _, err := s.submit(spec)
	return j, err
}

// submit is Submit that also returns the job's Status at admission, taken
// before the job is queued: a worker may pick the job up, and even finish
// it, before the caller could read Status itself.
func (s *Scheduler) submit(spec Spec) (*Job, Status, error) {
	if spec.Steps < 0 {
		return nil, Status{}, fmt.Errorf("%w: steps %d (want ≥ 0)", ErrSpec, spec.Steps)
	}
	if spec.Steps == 0 {
		spec.Steps = DefaultJobSteps
	}
	if spec.Steps > s.cfg.MaxSteps {
		return nil, Status{}, fmt.Errorf("%w: steps %d above the server cap %d", ErrSpec, spec.Steps, s.cfg.MaxSteps)
	}
	norm, err := spec.Config.Normalized()
	if err != nil {
		return nil, Status{}, err
	}
	spec.Config = norm
	if spec.SnapshotEvery < 0 || spec.MaxRestarts < 0 || spec.RestartRanks < 0 {
		return nil, Status{}, fmt.Errorf("%w: snapshot_every %d, max_restarts %d, restart_ranks %d (want ≥ 0)",
			ErrSpec, spec.SnapshotEvery, spec.MaxRestarts, spec.RestartRanks)
	}
	if spec.MaxRestarts > 0 && spec.SnapshotEvery == 0 {
		spec.SnapshotEvery = 1 // restarts need snapshots to restart from
	}
	if spec.RestartRanks > 0 && spec.RestartRanks != norm.Ranks {
		// The shrunk world must pass the same batch-geometry gate the
		// original did — catch it at admission, not mid-recovery.
		shrunk := norm
		shrunk.Ranks = spec.RestartRanks
		if _, err := shrunk.Normalized(); err != nil {
			return nil, Status{}, fmt.Errorf("restart_ranks %d: %w", spec.RestartRanks, err)
		}
	}
	if f := spec.Fault; f != nil {
		if f.Rank < 0 || f.Rank >= norm.Ranks || f.Step < 1 {
			return nil, Status{}, fmt.Errorf("%w: fault rank %d step %d (want rank in [0,%d), step ≥ 1)",
				ErrSpec, f.Rank, f.Step, norm.Ranks)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, Status{}, ErrDraining
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), spec, s.cfg.MetricRing)
	st := j.Status()
	select {
	case s.queue <- j:
	default:
		s.seq--
		return nil, Status{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, len(s.queue))
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j, st, nil
}

// Get returns a job by id.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// list returns every known job in submission order.
func (s *Scheduler) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// isDraining reports whether Drain has begun.
func (s *Scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// cancel stops a job: a queued job dies immediately, a running job stops
// collectively at its next accumulation boundary and checkpoints first.
// Cancelling a terminal job is ErrJobTerminal.
func (s *Scheduler) cancel(id string) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	if j.State().Terminal() {
		return fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, j.State())
	}
	// Queued jobs go terminal here; the worker that later pulls the job
	// from the queue sees the state and skips it. Running jobs only get
	// the context cancel — their worker owns the terminal transition.
	if j.transition(StateQueued, StateCancelled) {
		j.finish(StateCancelled, nil)
		return nil
	}
	j.cancel()
	return nil
}

// Drain begins shutdown: no more submissions, queued jobs are cancelled,
// running jobs checkpoint-and-stop at their next boundary, and Drain
// blocks until every worker has exited or ctx expires. Once the workers
// have exited, a private checkpoint directory is removed with the files in
// it. Idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	if first {
		close(s.queue) // Submit checks draining under mu before sending
	}
	for _, j := range jobs {
		if j.transition(StateQueued, StateCancelled) {
			j.finish(StateCancelled, nil)
			continue
		}
		j.cancel() // running jobs stop at the next boundary and checkpoint
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.private {
			os.RemoveAll(s.dir) //nolint:errcheck // a temp dir; nothing reads it after drain
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker runs queued jobs until the queue closes at drain.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob owns one job from running to terminal. It is the supervisor of
// the elastic fault-tolerance story: each attempt trains in a freshly built
// world with rank-death containment; when a rank dies, the survivors error
// out collectively (no deadlock), the attempt returns, and — restart budget
// permitting — the next attempt resumes from the newest boundary snapshot
// file, in a world of Spec.RestartRanks ranks if that is set (the
// snapshot's slabs load at any world size). Clean attempts write a final
// checkpoint exactly as before.
func (s *Scheduler) runJob(j *Job) {
	if !j.transition(StateQueued, StateRunning) {
		return // cancelled while queued
	}
	cfg := j.spec.Config // normalized at Submit
	var from string      // the newest snapshot file; "" starts from scratch
	for attempt := 0; ; attempt++ {
		res := s.runAttempt(j, cfg, from, attempt)
		if res.newest != "" {
			from = res.newest
		}
		if res.fatal != nil {
			j.finish(StateFailed, res.fatal)
			return
		}
		if res.death == nil {
			j.setCheckpoint(res.checkpoint)
			if res.cancelled {
				j.finish(StateCancelled, nil)
			} else {
				j.finish(StateSucceeded, nil)
			}
			return
		}
		if attempt >= j.spec.MaxRestarts {
			j.finish(StateFailed, fmt.Errorf("restart budget %d exhausted: %w", j.spec.MaxRestarts, res.death))
			return
		}
		if j.spec.RestartRanks > 0 {
			cfg.Ranks = j.spec.RestartRanks // elastic shrink/grow on restart; geometry validated at Submit
		}
		j.noteRestart(cfg.Ranks)
	}
}

// attemptResult is one attempt's outcome, partitioned into the supervisor's
// three cases: fatal (config/IO — never retried), death (a rank died —
// retryable), or clean (checkpoint/cancelled are meaningful).
type attemptResult struct {
	fatal      error
	death      error
	cancelled  bool
	checkpoint string // the final snapshot's file
	newest     string // the newest elastic snapshot file, "" if none
}

// runAttempt trains one attempt of the job in its own world and classifies
// how it ended. from, when set, is the boundary snapshot file the attempt
// starts from, whatever world size captured it: it is decoded once, and
// the ranks share the snapshot read-only (Load copies out).
func (s *Scheduler) runAttempt(j *Job, cfg engine.Config, from string, attempt int) attemptResult {
	var res attemptResult
	var resume *zero.Snapshot
	remaining := j.spec.Steps
	if from != "" {
		var err error
		if resume, err = zero.ReadSnapshotFile(from); err != nil {
			res.fatal = err
			return res
		}
		remaining = max(remaining-resume.Boundaries(), 0)
	}
	jobDir := filepath.Join(s.dir, j.id) // its snapshots and final checkpoint
	snapper, err := elastic.NewSnapshotter(elastic.Policy{Every: j.spec.SnapshotEvery, Dir: jobDir, Keep: s.cfg.SnapshotKeep}, cfg.Ranks)
	if err != nil {
		res.fatal = err
		return res
	}

	var mu sync.Mutex
	var bodyErr error // first per-rank failure (data open, checkpoint write)
	var checkpoint string
	var loopErr error
	fail := func(err error) {
		mu.Lock()
		if bodyErr == nil {
			bodyErr = err
		}
		mu.Unlock()
	}

	_, runErr := engine.Run(cfg, func(e *engine.Engine) {
		var b engine.Batcher
		if cfg.Data != nil {
			// The pipeline is deterministic, so an unopenable corpus fails
			// identically on every rank before any collective starts.
			ld, err := engine.OpenData(cfg)
			if err != nil {
				fail(err)
				return
			}
			defer ld.Close()
			b = ld
		} else {
			b = model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
		}
		if resume != nil {
			if err := e.Resume(resume, b); err != nil {
				fail(err)
				return
			}
		}
		// The injected fault kills before the step's own snapshot fires
		// (hook order), so recovery genuinely restarts from the previous
		// boundary, not from state captured at the instant of death.
		if f := j.spec.Fault; f != nil && attempt == 0 && e.Rank() == f.Rank {
			e.OnBoundary(func(step int) {
				if step == f.Step {
					e.Comm().Fail()
				}
			})
		}
		tr := e.Trainer()
		e.OnBoundary(func(step int) { snapper.Tick(step, tr) })
		defer snapper.Flush(e.Rank())
		if e.Rank() == 0 {
			w := e.Comm().World()
			mc := newMallocCounter()
			lastMallocs := mc.read()
			e.Observe(func(info engine.StepInfo) {
				now := mc.read()
				st := w.Stats(0)
				j.ring.push(Record{
					Step:          info.Step,
					Loss:          info.Loss,
					GradNorm:      info.GradNorm,
					LossScale:     info.LossScale,
					OverflowSteps: info.OverflowSteps,
					WireElems:     st.ElemsSent,
					WireBytes:     st.BytesSent,
					PerStream:     st.PerStream,
					Allocs:        now - lastMallocs,
				})
				lastMallocs = now
				j.noteStep(info.Step, info.Loss)
			})
		}
		_, err := e.TrainLoop(j.ctx, b, remaining)
		if e.Rank() == 0 {
			mu.Lock()
			loopErr = err
			mu.Unlock()
		}
		// Checkpoint-and-stop, whether the loop ran to completion or was
		// cancelled at a boundary: every rank writes its slab into the
		// job's file — the daemon keeps the path, not the state.
		path := filepath.Join(jobDir, "final.zelc")
		if _, err := e.Trainer().SaveFile(path); err != nil {
			fail(err)
			return
		}
		if e.Rank() == 0 {
			mu.Lock()
			checkpoint = path
			mu.Unlock()
		}
	})
	snapErr := snapper.Close()
	res.newest = snapper.Newest()
	if errors.Is(runErr, engine.ErrRankFailed) {
		// Prefer the root cause — the rank that actually died — over the
		// ranks that merely observed the death. Snapshot-path errors here
		// are collateral of the death (a write cut mid-flight); the last
		// *completed* snapshot is still intact.
		res.death = runErr
		var killed comm.Killed
		if errors.As(runErr, &killed) {
			res.death = fmt.Errorf("rank %d: %w", killed.Rank, killed)
		}
		return res
	}
	if runErr != nil {
		res.fatal = runErr
		return res
	}
	if snapErr != nil {
		res.fatal = snapErr
		return res
	}
	if bodyErr != nil {
		res.fatal = bodyErr
		return res
	}
	res.cancelled = loopErr != nil
	res.checkpoint = checkpoint
	return res
}

// mallocCounter reads the process-wide cumulative heap allocation count,
// MemStats.Mallocs, from the two runtime/metrics counters it sums — without
// ReadMemStats stopping the world. The runtime counts a small object when
// the span it came from leaves its P's cache (ReadMemStats flushes every
// cache first), so a step's delta can shift by up to a span per size class
// into a neighbouring step; a step that allocates nothing moves neither.
type mallocCounter [2]metrics.Sample

func newMallocCounter() *mallocCounter {
	return &mallocCounter{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
}

func (m *mallocCounter) read() uint64 {
	metrics.Read(m[:])
	return m[0].Value.Uint64() + m[1].Value.Uint64()
}
