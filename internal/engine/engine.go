package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/perfmodel"
	"repro/internal/zero"
)

// Engine is one rank of a configured training job: the ZeRO trainer plus
// the accumulation-boundary bookkeeping of the Forward/Backward/Step loop.
//
// The lifecycle contract per micro-batch is
//
//	loss := e.Forward(ids, targets) // one micro-batch, sharded across ranks
//	e.Backward()                    // reduce-scatter into the owned accumulator
//	fired := e.Step()               // optimizer fires only on the boundary
//
// Step returns true on every GradAccumSteps-th call — the accumulation
// boundary, where the accumulated partitioned gradient is averaged,
// clipped and consumed by the optimizer. Between boundaries the only
// cross-micro-batch state is the Ψ/Nd gradient accumulator (§5.2);
// micro-batch forward/backward workspace is transient.
type Engine struct {
	cfg Config
	c   *comm.Comm
	tr  *zero.Trainer

	micro   int     // micro-batches since the last boundary
	lossSum float64 // summed micro losses since the last boundary
	last    float64 // mean local loss of the last completed boundary
	steps   int     // optimizer steps fired

	observer   func(StepInfo) // boundary tap, nil when unobserved
	onBoundary []func(int)    // post-step hooks (snapshotters); may run collectives
	stopFlag   []float32      // one-element TrainLoop cancellation vote
}

// StepInfo is the observation delivered at every accumulation boundary:
// the optimizer step that just fired, the boundary's mean local loss, and
// the pre-clipping global gradient norm (0 when clipping is off). Under
// the fp16 compute path it also carries the dynamic loss scale after the
// boundary and the cumulative count of overflow-skipped steps (both 0
// when fp16_compute is off).
type StepInfo struct {
	Step          int
	Loss          float64
	GradNorm      float64
	LossScale     float64
	OverflowSteps int
}

// Observe registers fn to be invoked synchronously at every accumulation
// boundary, right after the optimizer fires inside Step. One observer per
// engine (nil unregisters); it runs on the rank's own goroutine, so a
// server can tap per-step metrics without forking the training loop. The
// observer must not call back into the engine's collective methods.
func (e *Engine) Observe(fn func(StepInfo)) { e.observer = fn }

// OnBoundary appends a hook invoked at every accumulation boundary, after
// the optimizer fires and the observer runs. Unlike Observe, boundary hooks
// MAY submit collectives (that is their point: periodic elastic snapshots
// ride here), so every rank must register the same hooks in the same order —
// they are part of the collective schedule.
func (e *Engine) OnBoundary(fn func(step int)) { e.onBoundary = append(e.onBoundary, fn) }

// initialize validates cfg, compiles it down to zero.Options and builds
// this rank's Engine — the deepspeed.initialize of the reproduction. The
// same cfg must be passed on every rank of the world.
func initialize(c *comm.Comm, cfg Config) (*Engine, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if c.Size() != norm.Ranks {
		return nil, fmt.Errorf("%w: world has %d ranks, config says %d", ErrWorld, c.Size(), norm.Ranks)
	}
	opts, err := norm.compile()
	if err != nil {
		return nil, err
	}
	tr, err := zero.New(c, norm.Model, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: norm, c: c, tr: tr}, nil
}

// Run simulates a full data-parallel job: it validates cfg once, spins up
// a world of cfg.Ranks ranks, initializes an Engine per rank and invokes
// body on each rank's goroutine. The world is returned so callers can read
// wire statistics after the run.
//
// A config error is identical on every rank and stops the job before any
// collective starts: Run returns it and no world. A rank that dies
// mid-collective (killed by fault injection, or failing after observing a
// dead peer) does not crash the process: Run returns the world and an
// error wrapping ErrRankFailed that joins every rank's comm.Killed or
// comm.RankFailure. The supervisor loop in internal/serve restarts jobs
// from this signal.
func Run(cfg Config, body func(*Engine)) (*comm.World, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	w := comm.NewWorld(norm.Ranks)
	var mu sync.Mutex
	var initErr error
	deaths := w.Run(func(c *comm.Comm) {
		e, err := initialize(c, norm)
		if err != nil {
			mu.Lock()
			if initErr == nil {
				initErr = err
			}
			mu.Unlock()
			return
		}
		defer e.Close()
		body(e)
	})
	if initErr != nil {
		return nil, initErr
	}
	if err := errors.Join(deaths...); err != nil {
		return w, fmt.Errorf("%w: %w", ErrRankFailed, err)
	}
	return w, nil
}

// Rank returns this engine's data-parallel rank.
func (e *Engine) Rank() int { return e.c.Rank() }

// Forward runs one micro-batch's forward pass (MicroBatch rows across the
// group, row-major ids/targets; this rank computes its shard) and returns
// the local loss.
func (e *Engine) Forward(ids, targets []int) float64 {
	mb := e.cfg.MicroBatch
	if len(ids) != len(targets) || len(ids) == 0 || len(ids)%mb != 0 || len(ids)/mb > e.cfg.Model.Seq {
		panic(fmt.Sprintf("engine: Forward wants micro_batch %d × seq ≤ %d tokens, got %d",
			mb, e.cfg.Model.Seq, len(ids)))
	}
	loss := e.tr.Forward(ids, targets, mb)
	e.lossSum += loss
	return loss
}

// Backward runs the micro-batch's backward pass and folds its
// reduce-scattered gradient into the owned accumulator.
func (e *Engine) Backward() { e.tr.Backward() }

// Step advances the accumulation counter and, on the boundary (every
// GradAccumSteps-th call), averages the accumulated gradient, applies
// clipping and runs the optimizer; the next Forward gathers the updated
// parameters at stages 1-3. It returns
// whether the optimizer fired. Panics when called without a completed
// Forward/Backward pair since the previous Step.
func (e *Engine) Step() bool {
	if e.tr.AccumulatedMicros() != e.micro+1 {
		panic("engine: Step without a preceding Forward/Backward")
	}
	e.micro++
	if e.micro < e.cfg.GradAccumSteps {
		return false
	}
	e.tr.Update()
	e.last = e.lossSum / float64(e.micro)
	e.micro = 0
	e.lossSum = 0
	e.steps++
	if e.observer != nil {
		e.observer(StepInfo{
			Step: e.steps, Loss: e.last, GradNorm: e.tr.LastGradNorm,
			LossScale: e.tr.LossScale(), OverflowSteps: e.tr.OverflowSteps(),
		})
	}
	for _, fn := range e.onBoundary {
		fn(e.steps)
	}
	return true
}

// Batcher is a stream of global micro-batches: each call returns
// MicroBatch rows × seq_len tokens of ids with their next-token targets,
// row-major. data.Loader streams a real corpus behind this contract;
// model.SyntheticStream cycles the synthetic batch behind the same one.
// Returned slices may be reused by the next call — the engine consumes
// them within the micro-step.
type Batcher interface {
	NextBatch() (ids, targets []int)
}

// TrainStream runs one optimizer step by draining GradAccumSteps
// micro-batches from b through the Forward/Backward/Step lifecycle, and
// returns the mean local loss at the boundary. It is TrainBatch for data
// that arrives as a stream instead of a materialized global batch.
func (e *Engine) TrainStream(b Batcher) float64 {
	if e.micro != 0 {
		panic("engine: TrainStream mid-accumulation")
	}
	for j := 0; j < e.cfg.GradAccumSteps; j++ {
		ids, targets := b.NextBatch()
		e.Forward(ids, targets)
		e.Backward()
		e.Step()
	}
	return e.BatchLoss()
}

// TrainLoop drives up to steps optimizer steps from b, checking ctx at
// every accumulation boundary. Cancellation is collective: before each
// step every rank contributes its local ctx observation to a one-element
// all-reduce, so all ranks agree on the stopping boundary and no rank is
// left blocking mid-collective when cancellation lands asynchronously.
// It returns the number of completed optimizer steps, and ctx's error when
// the loop stopped early. The loop always exits on an accumulation
// boundary, so Save is legal immediately after (checkpoint-and-stop).
func (e *Engine) TrainLoop(ctx context.Context, b Batcher, steps int) (int, error) {
	done := ctx.Done()
	for s := 0; s < steps; s++ {
		stop := false
		select {
		case <-done:
			stop = true
		default:
		}
		if e.stopVote(stop) {
			// Some rank saw the cancel before voting; the cancel
			// happened-before its vote reached us, so Err is set here too.
			if err := ctx.Err(); err != nil {
				return s, err
			}
			return s, context.Canceled
		}
		e.TrainStream(b)
	}
	return steps, nil
}

// stopVote agrees on cancellation across the world: the max of every
// rank's local flag, via a one-element all-reduce on the default stream.
func (e *Engine) stopVote(stop bool) bool {
	if e.stopFlag == nil {
		e.stopFlag = make([]float32, 1)
	}
	e.stopFlag[0] = 0
	if stop {
		e.stopFlag[0] = 1
	}
	e.c.AllReduce(e.stopFlag)
	return e.stopFlag[0] != 0
}

// TrainBatch runs one full global batch — GradAccumSteps micro-batches of
// MicroBatch rows, sliced row-major from ids/targets — through the
// Forward/Backward/Step lifecycle and returns the mean local loss at the
// boundary. It is the one-call convenience for data already materialized
// at global-batch granularity.
func (e *Engine) TrainBatch(ids, targets []int) float64 {
	if e.micro != 0 {
		panic("engine: TrainBatch mid-accumulation")
	}
	if len(ids) != len(targets) || len(ids) == 0 || len(ids)%e.cfg.GlobalBatch != 0 {
		panic(fmt.Sprintf("engine: TrainBatch wants global_batch %d × seq tokens, got %d",
			e.cfg.GlobalBatch, len(ids)))
	}
	seqLen := len(ids) / e.cfg.GlobalBatch
	mt := e.cfg.MicroBatch * seqLen
	for j := 0; j < e.cfg.GradAccumSteps; j++ {
		e.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt])
		e.Backward()
		e.Step()
	}
	return e.BatchLoss()
}

// BatchLoss returns the mean local loss of the last completed accumulation
// boundary (0 before the first).
func (e *Engine) BatchLoss() float64 { return e.last }

// Steps returns how many optimizer steps have fired.
func (e *Engine) Steps() int { return e.steps }

// LossScale returns the current dynamic loss scale (0 when fp16_compute
// is off).
func (e *Engine) LossScale() float64 { return e.tr.LossScale() }

// OverflowSteps counts optimizer steps skipped on fp16 overflow.
func (e *Engine) OverflowSteps() int { return e.tr.OverflowSteps() }

// NumParams returns the model's flat parameter count Ψ.
func (e *Engine) NumParams() int { return e.tr.Model.NumParams() }

// ModelStateBytes returns the §3.1 prediction of this rank's model-state
// bytes at the configured stage (mixed-precision Adam, 16Ψ/N at stage 3).
// It is a closed form, not a reading of the live buffers: those hold
// 4Ψ + 12Ψ/N + W at fp32 stages 1-2, where the parameters stay Ψ-long,
// and 16Ψ/N + W + Wp at fp32 stage 3, where the gradients and the
// parameters each take a few layer-group windows
// (zero.Trainer.ResidentBytes, pinned by TestTrainerModelStateAccounting).
func (e *Engine) ModelStateBytes() int64 {
	return int64(perfmodel.ModelStateBytes(int64(e.NumParams()), int(e.tr.Stage()), e.c.Size()))
}

// GradAccumElems returns the element count of the persistent gradient
// accumulator (Ψ/Nd at the partitioned stages, independent of
// GradAccumSteps — the §5.2 memory property).
func (e *Engine) GradAccumElems() int { return e.tr.GradAccumElems() }

// Save consolidates the partitioned training state to rank 0 (other ranks
// return nil). Collective; call on an accumulation boundary.
func (e *Engine) Save() *zero.Snapshot { return e.tr.Save() }

// Load restores a snapshot into this rank (see zero.Trainer.Load) and
// adopts its training clock: Steps continues from the snapshot's
// Boundaries — its optimizer steps plus its fp16 overflow skips — from
// which Resume fast-forwards the data stream.
// Mid-accumulation snapshots (AccumMicros > 0) are rejected — the engine's
// micro-step counter is part of the TrainStream schedule, and resuming a
// half batch would desynchronize it; restore those through zero.Trainer.Load
// directly when driving the micro loop by hand.
func (e *Engine) Load(s *zero.Snapshot) error {
	if s != nil && s.AccumMicros > 0 {
		return fmt.Errorf("engine: snapshot holds %d half-accumulated micro-batches; the engine resumes only from boundaries", s.AccumMicros)
	}
	if err := e.tr.Load(s); err != nil {
		return err
	}
	e.micro = 0
	e.lossSum = 0
	e.steps = s.Boundaries()
	return nil
}

// Resume loads s (see Load) and fast-forwards b past the Boundaries() ×
// GradAccumSteps micro-batches the snapshot's run consumed, so a
// deterministic stream continues exactly where that run left it.
func (e *Engine) Resume(s *zero.Snapshot, b Batcher) error {
	if err := e.Load(s); err != nil {
		return err
	}
	for i := 0; i < e.steps*e.cfg.GradAccumSteps; i++ {
		b.NextBatch()
	}
	return nil
}

// Trainer exposes the underlying zero.Trainer for internal callers that
// read its residency or snapshot its state (bench harnesses, experiments,
// the job daemon's snapshotter). Its schedule is fixed by the config.
func (e *Engine) Trainer() *zero.Trainer { return e.tr }

// Comm returns the engine's communicator (fault injection, elastic
// snapshot plumbing). Use only from the rank's own goroutine.
func (e *Engine) Comm() *comm.Comm { return e.c }

// Close releases the engine's stream workers.
func (e *Engine) Close() { e.tr.Close() }
