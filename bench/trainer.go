package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/engine"
	"repro/internal/model"
)

// blockPlan is one timed region of a trainer run: steps optimizer steps,
// with spans recorded or not.
type blockPlan struct {
	traced bool
	steps  int
}

// blockResult is what rank 0 measured over one block.
type blockResult struct {
	traced  bool
	stepSec []float64  // wall time of each optimizer step on rank 0
	wallSec float64    // first step's start → last step's end
	mallocs uint64     // process heap allocations over the block
	wire    comm.Stats // rank 0's traffic counters, differenced over the block
}

// wireDelta differences the counters this benchmark reads.
func wireDelta(before, after comm.Stats) comm.Stats {
	d := comm.Stats{
		ElemsSent: after.ElemsSent - before.ElemsSent,
		BytesSent: after.BytesSent - before.BytesSent,
		Messages:  after.Messages - before.Messages,
		PerStream: make(map[string]int64, len(after.PerStream)),
	}
	for name, elems := range after.PerStream {
		d.PerStream[name] = elems - before.PerStream[name]
	}
	return d
}

// mergeBlocks folds the blocks that were traced, or the ones that were not,
// into one.
func mergeBlocks(blocks []blockResult, traced bool) blockResult {
	out := blockResult{traced: traced, wire: comm.Stats{PerStream: make(map[string]int64)}}
	for _, b := range blocks {
		if b.traced != traced {
			continue
		}
		out.stepSec = append(out.stepSec, b.stepSec...)
		out.wallSec += b.wallSec
		out.mallocs += b.mallocs
		out.wire.ElemsSent += b.wire.ElemsSent
		out.wire.BytesSent += b.wire.BytesSent
		out.wire.Messages += b.wire.Messages
		for name, elems := range b.wire.PerStream {
			out.wire.PerStream[name] += elems
		}
	}
	return out
}

// trainJob describes one trainer process-lifetime: parse the config, build
// the world, open the data, warm up (together: set-up), then run the blocks.
// With no blocks it measures set-up alone.
type trainJob struct {
	cfgJSON   []byte
	warm      int
	blocks    []blockPlan
	snapEvery int    // > 0 hangs an elastic snapshotter on the boundary hook
	snapDir   string // where it persists checkpoints
}

// trainResult is the outcome of one trainJob, as seen from outside the
// layers: times measured around their public calls, and their own gauges.
type trainResult struct {
	cfg       engine.Config // normalized
	setupSec  float64       // config parse → rank 0 finished the last warm-up step
	openSec   float64       // rank 0's OpenData, inside set-up
	firstLoss float64       // rank 0's loss at the first optimizer step
	lastLoss  float64       // ... and at the last
	steps     int           // optimizer steps every rank was asked to run
	fired     []int         // optimizer steps each rank saw fire
	nonFinite []int         // steps with a non-finite loss, per rank
	blocks    []blockResult
	recs      []*recorder // one per rank; empty when no block is traced

	numParams      int
	modelStateB    int64
	residencyB     int64
	gradAccumElems int
	overflowSteps  int
	lossScale      float64
	epochs         int
	snapshots      int64
	snapshotElems  int64 // the last rank's checkpoint-stream elements over the whole job
	stallNs        int64
	fileBytes      int64
}

// rankLoop is one rank's closed training loop: the next optimizer step
// starts when the previous one has returned.
type rankLoop struct {
	e      *engine.Engine
	b      engine.Batcher
	k      int       // micro-batches per optimizer step
	rec    *recorder // nil while untraced
	stepID int
	update int // the open update span, parent of the snapshot hook's span
	bad    int // steps with a non-finite loss
	fired  int
}

// step runs one optimizer step through the engine's three-call lifecycle,
// with a span around each call into a layer.
func (l *rankLoop) step() {
	rec := l.rec
	l.stepID++
	finite := true
	sid := rec.open(spanStep, -1, l.stepID)
	for j := 0; j < l.k; j++ {
		id := rec.open(spanBatch, sid, l.stepID)
		ids, targets := l.b.NextBatch()
		rec.close(id)

		id = rec.open(spanForward, sid, l.stepID)
		loss := l.e.Forward(ids, targets)
		rec.close(id)

		id = rec.open(spanBackward, sid, l.stepID)
		l.e.Backward()
		rec.close(id)

		l.update = rec.open(spanUpdate, sid, l.stepID)
		if l.e.Step() {
			l.fired++
		}
		rec.close(l.update)

		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			finite = false
		}
	}
	rec.close(sid)
	if !finite {
		l.bad++
	}
}

// spansPerStep bounds the spans one rank records per optimizer step: the
// step, four per micro-batch, and the snapshot hook.
func spansPerStep(k int) int { return 2 + 4*k }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// train runs one trainJob to completion.
func train(job trainJob) (trainResult, error) {
	start := time.Now()
	cfg, err := engine.ParseConfig(job.cfgJSON)
	if err != nil {
		return trainResult{}, err
	}
	cfg, err = cfg.Normalized()
	if err != nil {
		return trainResult{}, err
	}
	n := cfg.Ranks
	res := trainResult{cfg: cfg, steps: job.warm, fired: make([]int, n), nonFinite: make([]int, n)}
	res.blocks = make([]blockResult, len(job.blocks))
	tracedSteps := 0
	for i, bp := range job.blocks {
		res.steps += bp.steps
		res.blocks[i] = blockResult{traced: bp.traced, stepSec: make([]float64, bp.steps)}
		if bp.traced {
			tracedSteps += bp.steps
		}
	}
	if tracedSteps > 0 {
		res.recs = make([]*recorder, n)
		for r := range res.recs {
			res.recs[r] = newRecorder(r, tracedSteps*spansPerStep(cfg.GradAccumSteps))
		}
	}

	var snapper *elastic.Snapshotter
	if job.snapEvery > 0 {
		pol := elastic.Policy{Every: job.snapEvery, Dir: job.snapDir, Keep: 2}
		if snapper, err = elastic.NewSnapshotter(pol, n); err != nil {
			return trainResult{}, err
		}
	}

	var mu sync.Mutex
	var bodyErr error
	var world *comm.World
	_, err = engine.Run(cfg, func(e *engine.Engine) {
		rk := e.Rank()
		l := &rankLoop{e: e, k: cfg.GradAccumSteps}
		if cfg.Data != nil {
			t := time.Now()
			ld, err := engine.OpenData(cfg)
			if err != nil {
				// Deterministic, so every rank fails here alike, before
				// any collective.
				mu.Lock()
				bodyErr = err
				mu.Unlock()
				return
			}
			defer ld.Close()
			if rk == 0 {
				res.openSec = time.Since(t).Seconds()
				defer func() { res.epochs = ld.Epochs() }()
			}
			l.b = ld
		} else {
			l.b = model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
		}
		if snapper != nil {
			tr := e.Trainer()
			e.OnBoundary(func(step int) {
				if step%job.snapEvery != 0 {
					return // Tick would do nothing; keep the no-ops out of the tick spans
				}
				id := l.rec.open(spanTick, l.update, l.stepID)
				snapper.Tick(step, tr)
				l.rec.close(id)
			})
			defer snapper.Flush(rk)
		}

		for i := 0; i < job.warm; i++ {
			l.step()
			if rk == 0 && i == 0 {
				res.firstLoss = e.BatchLoss()
			}
		}
		if rk == 0 {
			res.setupSec = time.Since(start).Seconds()
		}

		if rk == 0 {
			world = e.Comm().World()
		}
		for bi, bp := range job.blocks {
			l.rec = nil
			if bp.traced {
				l.rec = res.recs[rk]
			}
			if rk != 0 {
				for i := 0; i < bp.steps; i++ {
					l.step()
				}
				continue
			}
			br := &res.blocks[bi]
			before := world.Stats(0)
			m0 := mallocs()
			t0 := time.Now()
			prev := t0
			for i := 0; i < bp.steps; i++ {
				l.step()
				now := time.Now()
				br.stepSec[i] = now.Sub(prev).Seconds()
				prev = now
			}
			br.wallSec = prev.Sub(t0).Seconds()
			br.mallocs = mallocs() - m0
			br.wire = wireDelta(before, world.Stats(0))
		}

		res.fired[rk] = l.fired
		res.nonFinite[rk] = l.bad
		if rk == 0 {
			res.lastLoss = e.BatchLoss()
			res.numParams = e.NumParams()
			res.modelStateB = e.ModelStateBytes()
			res.residencyB = e.Trainer().ComputeResidencyBytes()
			res.gradAccumElems = e.GradAccumElems()
			res.overflowSteps = e.OverflowSteps()
			res.lossScale = e.LossScale()
		}
	})
	if snapper != nil && world != nil {
		// Rank 0 is the root of the snapshot gather and sends nothing on the
		// checkpoint stream, and the gathers run behind the steps, so the
		// stream is read on the last rank once every gather has landed.
		res.snapshotElems = world.Stats(n - 1).PerStream["checkpoint"]
	}
	if snapper != nil {
		res.snapshots = snapper.Count()
		res.stallNs = snapper.StallNs()
		if cerr := snapper.Close(); cerr != nil && err == nil {
			err = cerr
		}
		res.fileBytes = largestFile(job.snapDir)
	}
	if err == nil {
		err = bodyErr
	}
	return res, err
}

// largestFile returns the size of the largest regular file in dir, the
// persisted checkpoint's size (every retained checkpoint has the same).
func largestFile(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var size int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			size = max(size, info.Size())
		}
	}
	return size
}

// check is one correctness check made inside the run; a failed check counts
// as a failed operation and fails the command.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// trainChecks are the checks every trainer run makes on itself.
func trainChecks(res trainResult) (checks []check, failedSteps int) {
	for _, bad := range res.nonFinite {
		failedSteps = max(failedSteps, bad)
	}
	agree := true
	for _, f := range res.fired {
		if f != res.steps {
			agree = false
		}
	}
	checks = append(checks,
		check{"loss finite at every step", failedSteps == 0, fmt.Sprintf("%d steps non-finite", failedSteps)},
		check{"every rank fired every step", agree, fmt.Sprintf("fired %v, want %d", res.fired, res.steps)},
		check{"final loss below first-step loss", res.lastLoss < res.firstLoss,
			fmt.Sprintf("first %.6g, final %.6g", res.firstLoss, res.lastLoss)},
	)
	return checks, failedSteps
}

// tokensPerStep is the tokens one optimizer step consumes across all ranks.
func tokensPerStep(cfg engine.Config) int {
	seq := cfg.Model.Seq
	if cfg.Data != nil {
		seq = cfg.Data.SeqLen
	}
	return cfg.GlobalBatch * seq
}

// writeCorpus puts the embedded corpus where the data layer can open it.
func writeCorpus(dir string) (string, error) {
	path, err := filepath.Abs(filepath.Join(dir, "corpus.txt"))
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, corpusText, 0o644)
}
