package elastic

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
	"repro/internal/zero"
)

func testConfig() model.Config {
	return model.Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 19, Seq: 8}
}

const (
	testSeed = 7
	testLR   = 1e-3
)

// newTrainer builds a trainer of testConfig on c. It runs on a rank's
// goroutine, where t.Fatal cannot stop the test, so it panics on error.
func newTrainer(c *comm.Comm, opts zero.Options) *zero.Trainer {
	tr, err := zero.New(c, testConfig(), opts)
	if err != nil {
		panic(err)
	}
	return tr
}

// encode is the snapshot's ZELC bytes.
func encode(t *testing.T, s *zero.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func snapshotsEqual(t *testing.T, a, b *zero.Snapshot, label string) {
	t.Helper()
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Errorf("%s: snapshots differ", label)
	}
}

// captureWorld trains a schedule and returns the snapshot the per-rank
// shard captures make. The schedule is fullSteps whole optimizer
// steps followed by extraMicros forward/backward micro-batches left pending
// in the accumulator.
func captureWorld(t *testing.T, n int, opts zero.Options, fullSteps, microsPer, extraMicros int,
	ids, targets []int, batch int) *zero.Snapshot {
	t.Helper()
	slabs := make([][]float32, n)
	hdrs := make([]zero.Snapshot, n)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := newTrainer(c, opts)
		defer tr.Close()
		for s := 0; s < fullSteps; s++ {
			for m := 0; m < microsPer; m++ {
				tr.Forward(ids, targets, batch)
				tr.Backward()
			}
			tr.Update()
		}
		for m := 0; m < extraMicros; m++ {
			tr.Forward(ids, targets, batch)
			tr.Backward()
		}
		slabs[c.Rank()], hdrs[c.Rank()] = tr.CaptureShard(nil)
	})
	return assemble(t, hdrs, slabs)
}

// assemble builds the snapshot from one capture per rank, checking first
// that every rank stamped the same header (any of them heads the slabs).
func assemble(t *testing.T, hdrs []zero.Snapshot, slabs [][]float32) *zero.Snapshot {
	t.Helper()
	for r := range hdrs {
		if !reflect.DeepEqual(hdrs[r], hdrs[0]) {
			t.Fatalf("rank %d captured header %+v, rank 0 %+v", r, hdrs[r], hdrs[0])
		}
	}
	snap := hdrs[0]
	snap.Slabs = slabs
	return &snap
}

// resumeWorld loads a consolidated snapshot into a fresh n-rank world (a
// different seed, so the weights genuinely come from the snapshot), runs
// the given schedule, and returns each rank's final full parameter buffer.
func resumeWorld(t *testing.T, n int, opts zero.Options, snap *zero.Snapshot,
	finishMicros int, fullSteps, microsPer int, ids, targets []int, batch int) [][]float32 {
	t.Helper()
	out := make([][]float32, n)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		o := opts
		o.Seed = 4242
		tr := newTrainer(c, o)
		defer tr.Close()
		if err := tr.Load(snap); err != nil {
			t.Error(err)
			return
		}
		for m := 0; m < finishMicros; m++ {
			tr.Forward(ids, targets, batch)
			tr.Backward()
		}
		if finishMicros > 0 {
			tr.Update()
		}
		for s := 0; s < fullSteps; s++ {
			for m := 0; m < microsPer; m++ {
				tr.Forward(ids, targets, batch)
				tr.Backward()
			}
			tr.Update()
		}
		out[c.Rank()] = tr.GatheredParams()
	})
	return out
}

// referenceWorld runs the uninterrupted schedule and returns final params.
func referenceWorld(t *testing.T, n int, opts zero.Options, fullSteps, microsPer int,
	ids, targets []int, batch int) [][]float32 {
	t.Helper()
	out := make([][]float32, n)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := newTrainer(c, opts)
		defer tr.Close()
		for s := 0; s < fullSteps; s++ {
			for m := 0; m < microsPer; m++ {
				tr.Forward(ids, targets, batch)
				tr.Backward()
			}
			tr.Update()
		}
		out[c.Rank()] = tr.GatheredParams()
	})
	return out
}

// The snapshot round-trip matrix (capture → Load → resume) is bitwise
// across stage × optimizer × accumulation depth, including captures taken
// mid-accumulation. This is the elastic capture path's core correctness
// claim: the world's CaptureShard slabs, loaded back, are
// indistinguishable from never having stopped.
func TestCaptureRoundTripMatrix(t *testing.T) {
	cfg := testConfig()
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(11, batch, cfg.Seq, cfg.Vocab)

	cases := []struct {
		name   string
		stage  zero.Stage
		opt    optimizer.Spec
		micros int // accumulation depth per optimizer step
		midCut int // micro-batches already folded when the capture happens
		fp16   bool
	}{
		{name: "ddp/adam/k1", stage: zero.StageDDP, micros: 1},
		{name: "os/adam/k2", stage: zero.StageOS, micros: 2},
		{name: "osg/adam/k1", stage: zero.StageOSGrad, micros: 1},
		{name: "osg/adam/k3-mid2", stage: zero.StageOSGrad, micros: 3, midCut: 2},
		{name: "osg/sgd/k2-mid1", stage: zero.StageOSGrad, opt: optimizer.Spec{Kind: optimizer.KindSGD}, micros: 2, midCut: 1},
		{name: "osg/lamb/k2", stage: zero.StageOSGrad, opt: optimizer.Spec{Kind: optimizer.KindLAMB}, micros: 2},
		{name: "osgp/adam/k2-mid1", stage: zero.StageFull, micros: 2, midCut: 1},
		{name: "osgp/sgd/k1", stage: zero.StageFull, opt: optimizer.Spec{Kind: optimizer.KindSGD}, micros: 1},
		{name: "osg/adam/fp16-k2-mid1", stage: zero.StageOSGrad, micros: 2, midCut: 1, fp16: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.LR = testLR
			opts := zero.Options{Stage: tc.stage, Seed: testSeed, Optimizer: tc.opt, FP16Compute: tc.fp16}
			if tc.fp16 {
				// The loss scaler is not part of a snapshot, so the resumed
				// run retraces the uninterrupted one only at a scale that
				// never overflows (and so never moves).
				opts.InitialLossScale = 256
			}
			const preSteps, postSteps = 2, 2

			// Uninterrupted reference: preSteps + 1 (the step the capture
			// interrupts, when mid-accumulation) + postSteps updates.
			interrupted := 0
			if tc.midCut > 0 {
				interrupted = 1
			}
			ref := referenceWorld(t, n, opts, preSteps+interrupted+postSteps, tc.micros,
				ids, targets, batch)

			ck := captureWorld(t, n, opts, preSteps, tc.micros, tc.midCut,
				ids, targets, batch)
			if (ck.AccumMicros > 0) != (tc.midCut > 0) {
				t.Fatalf("capture AccumMicros=%d, midCut=%d", ck.AccumMicros, tc.midCut)
			}
			finish := 0
			if tc.midCut > 0 {
				finish = tc.micros - tc.midCut
			}
			got := resumeWorld(t, n, opts, ck, finish, postSteps, tc.micros,
				ids, targets, batch)
			for r := 0; r < n; r++ {
				if d := testutil.MaxDiff(got[r], ref[r]); d != 0 {
					t.Errorf("rank %d: resumed trajectory diverged by %g", r, d)
				}
			}
		})
	}
}

// Elastic resume across world sizes: capture at N=4, Load at M=2 — each
// rank copies its partition out of the slabs, nothing is converted — and
// the trajectory matches a from-scratch M=2 run of the full schedule within
// reduction-tree tolerance (the N=4 prefix grouped its reductions
// differently, so bitwise is not on offer).
func TestReshardedResumeMatchesSmallWorld(t *testing.T) {
	cfg := testConfig()
	const batch, pre, post = 4, 3, 3
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	opts := zero.Options{Stage: zero.StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

	ck := captureWorld(t, 4, opts, pre, 1, 0, ids, targets, batch)
	ref := referenceWorld(t, 2, opts, pre+post, 1, ids, targets, batch)
	got := resumeWorld(t, 2, opts, ck, 0, post, 1, ids, targets, batch)
	for r := 0; r < 2; r++ {
		if d := testutil.MaxDiff(got[r], ref[r]); d > 1e-3 {
			t.Errorf("rank %d: resume at M=2 diverged by %g", r, d)
		}
	}
}

// The async snapshotter's newest file equals a synchronous capture of the
// same moment, snapshots overlap training without corruption, files land
// atomically, and retention prunes to the bound.
func TestSnapshotterAsyncMatchesSyncCapture(t *testing.T) {
	cfg := testConfig()
	const n, batch, steps, every = 4, 4, 6, 2
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	opts := zero.Options{Stage: zero.StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	dir := t.TempDir()

	snap, err := NewSnapshotter(Policy{Every: every, Dir: dir, Keep: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	slabs := make([][]float32, n)
	hdrs := make([]zero.Snapshot, n)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := newTrainer(c, opts)
		defer tr.Close()
		for s := 1; s <= steps; s++ {
			tr.Step(ids, targets, batch)
			snap.Tick(s, tr)
		}
		// Synchronous ground truth for the same moment as the last Tick.
		slabs[c.Rank()], hdrs[c.Rank()] = tr.CaptureShard(nil)
		snap.Flush(c.Rank())
	})
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Count(); got != steps/every {
		t.Errorf("completed %d snapshots, want %d", got, steps/every)
	}

	// Retention kept exactly Keep files; the newest is the last Tick's and
	// is the one the snapshotter reports; no temp files leaked.
	files, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("retention kept %d files, want 2: %v", len(files), files)
	}
	newest := files[len(files)-1]
	if filepath.Base(newest) != checkpointName(steps) || snap.Newest() != newest {
		t.Errorf("newest file %s, reported %q; want %s", newest, snap.Newest(), checkpointName(steps))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
	fromDisk, err := zero.ReadSnapshotFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	sync := assemble(t, hdrs, slabs)
	if fromDisk.OptSteps != sync.OptSteps {
		t.Fatalf("newest file at step %d, sync capture at %d", fromDisk.OptSteps, sync.OptSteps)
	}
	snapshotsEqual(t, sync, fromDisk, "async file vs sync")
}

// take works mid-accumulation: the file the snapshotter reports holds the
// pending accumulator and decodes with the capture's clock.
func TestSnapshotterMidAccumInMemory(t *testing.T) {
	cfg := testConfig()
	const n, batch = 2, 4
	ids, targets := model.SyntheticBatch(9, batch, cfg.Seq, cfg.Vocab)
	opts := zero.Options{Stage: zero.StageOS, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

	snap, err := NewSnapshotter(Policy{Dir: t.TempDir()}, n)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := newTrainer(c, opts)
		defer tr.Close()
		tr.Step(ids, targets, batch)
		tr.Forward(ids, targets, batch)
		tr.Backward()
		snap.take(1, tr)
		snap.Flush(c.Rank())
	})
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Newest() == "" {
		t.Fatal("no snapshot file written")
	}
	ck, err := zero.ReadSnapshotFile(snap.Newest())
	if err != nil {
		t.Fatal(err)
	}
	if ck.AccumMicros != 1 {
		t.Fatalf("AccumMicros = %d, want 1 (capture was mid-accumulation)", ck.AccumMicros)
	}
	if ck.OptSteps != 1 {
		t.Errorf("OptSteps = %d, want 1", ck.OptSteps)
	}
}

// A snapshot is a file, so a snapshotter needs a directory to write it to.
func TestSnapshotterRequiresDir(t *testing.T) {
	if _, err := NewSnapshotter(Policy{Every: 1}, 2); err == nil {
		t.Error("NewSnapshotter without a Dir: no error")
	}
}

// One snapshot tick at serve-snap's shape (Ψ = 110,336, Adam, stage 2, 2
// ranks), persisted to a Dir, allocates at most 0.05× the 12Ψ-byte model
// state, the write included: each rank captures into its double buffer and
// writes that buffer into the file through a lent encode buffer, and only
// three-float reports cross the wire, so no rank allocates or receives
// another rank's slab. The per-tick figure is the signed difference between
// a 4-tick and a 2-tick snapshotter, each measured from construction to
// Close, so what a snapshotter allocates once — the double buffers, the
// directory — cancels out.
func TestSnapshotterTickAllocations(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 64, Heads: 4, Vocab: 128, Seq: 32}
	const n, every = 2, 2
	opts := zero.Options{Stage: zero.StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	run := func(ticks int) int64 {
		dir := t.TempDir()
		var grew int64
		var snap *Snapshotter
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr, err := zero.New(c, cfg, opts)
			if err != nil {
				panic(err)
			}
			defer tr.Close()
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
				if snap, err = NewSnapshotter(Policy{Every: every, Dir: dir, Keep: 2}, n); err != nil {
					panic(err)
				}
			}
			c.Barrier()
			for i := 1; i <= ticks; i++ {
				snap.Tick(i*every, tr)
			}
			snap.Flush(c.Rank())
			c.Barrier()
			if c.Rank() == 0 {
				if err := snap.Close(); err != nil {
					t.Error(err)
				}
				runtime.ReadMemStats(&after)
				grew = int64(after.TotalAlloc - before.TotalAlloc)
			}
		})
		if got := snap.Count(); got != int64(ticks) {
			t.Fatalf("%d ticks wrote %d snapshots", ticks, got)
		}
		return grew
	}
	run(1) // the encode buffers are lent process-wide: warm them first
	short, long := run(2), run(4)
	perTick := float64(long-short) / 2
	state := float64(12 * cfg.ParamCount()) // fp32 master + Adam's two moments
	t.Logf("%.0f bytes per tick, %.4f× the model state", perTick, perTick/state)
	if perTick > 0.05*state {
		t.Errorf("a snapshot tick allocates %.0f bytes, %.4f× the %.0f-byte model state; want ≤ 0.05×",
			perTick, perTick/state, state)
	}
}

// A rank killed between writing its slab and reporting it to rank 0 leaves
// no file at that step: the previous checkpoint stays the newest and
// decodes, and no goroutine is left behind.
func TestSnapshotterKillDuringWrite(t *testing.T) {
	cfg := testConfig()
	const n, batch, kill = 3, 3, 3
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	opts := zero.Options{Stage: zero.StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	dir := t.TempDir()
	snap, err := NewSnapshotter(Policy{Every: 1, Dir: dir}, n)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	w := comm.NewWorld(n)
	errs := w.Run(func(c *comm.Comm) {
		tr := newTrainer(c, opts)
		defer tr.Close()
		for s := 1; s <= kill; s++ {
			tr.Step(ids, targets, batch)
			if s == kill && c.Rank() == 1 {
				// The step is done and the earlier snapshots are written, so
				// rank 1's next wire op is the report of its step-3 write.
				w.FailRankAfterOps(1, 1)
			}
			snap.Tick(s, tr)
			snap.Flush(c.Rank())
		}
	})
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("world errors %v: want rank 1 killed and rank 0 failing on it", errs)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("%d goroutines left running", g-baseline)
	}
	want := filepath.Join(dir, checkpointName(kill-1))
	if snap.Newest() != want || snap.Count() != kill-1 {
		t.Fatalf("newest %q after %d snapshots, want %q after %d", snap.Newest(), snap.Count(), want, kill-1)
	}
	if _, err := zero.ReadSnapshotFile(want); err != nil {
		t.Errorf("the previous checkpoint does not decode: %v", err)
	}
	if files, err := listCheckpoints(dir); err != nil || len(files) != kill-1 {
		t.Errorf("checkpoints %v (%v), want steps 1–%d only", files, err, kill-1)
	}
}
