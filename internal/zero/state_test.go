package zero

import (
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// Save/Load round trip: train k steps, checkpoint, restore into a fresh
// world, train j more steps — the trajectory must equal an uninterrupted
// k+j-step run bitwise. This exercises the collective consolidation of the
// partitioned optimizer state (no single rank holds it all).
func TestSaveLoadResumesBitwise(t *testing.T) {
	cfg := testConfig()
	const n, batch, k, j = 4, 4, 3, 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)

	for _, stage := range []Stage{StageDDP, StageOS, StageOSGrad, StageFull} {
		opts := Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

		// Uninterrupted reference.
		ref := runZeRO(t, cfg, stage, n, k+j, opts, ids, targets, batch)

		// Train k steps, save on rank 0.
		var blob []byte
		w1 := comm.NewWorld(n)
		w1.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, opts)
			for s := 0; s < k; s++ {
				tr.Step(ids, targets, batch)
			}
			snap := tr.Save()
			if c.Rank() == 0 {
				var err error
				blob, err = encode(snap)
				if err != nil {
					t.Error(err)
				}
			}
		})

		// Fresh world with a different seed (weights will be overwritten):
		// every rank loads the one decoded snapshot, then resumes.
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		w2 := comm.NewWorld(n)
		results := make([][]float32, n)
		w2.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: 999})
			if err := tr.Load(snap); err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < j; s++ {
				tr.Step(ids, targets, batch)
			}
			results[c.Rank()] = tr.GatheredParams()
		})
		for r := 0; r < n; r++ {
			if d := testutil.MaxDiff(results[r], ref[r]); d != 0 {
				t.Errorf("%v rank %d: resumed trajectory diverged by %g", stage, r, d)
			}
		}
	}
}

// Elastic restore: a checkpoint written by a 4-rank world restores into a
// 2-rank world and matches the 2-rank uninterrupted trajectory (state is
// stored unpartitioned, so repartitioning is automatic).
func TestElasticRestoreAcrossWorldSizes(t *testing.T) {
	cfg := testConfig()
	const batch, k, j = 4, 3, 3
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}

	// Save from a 4-rank world.
	var blob []byte
	w4 := comm.NewWorld(4)
	w4.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < k; s++ {
			tr.Step(ids, targets, batch)
		}
		if snap := tr.Save(); snap != nil {
			blob, _ = encode(snap)
		}
	})

	// Reference: what a 2-rank world reaches after k+j steps from scratch.
	// (The k-step prefix differs only by reduction grouping, so compare
	// with tolerance rather than bitwise.)
	ref := runZeRO(t, cfg, StageOSGrad, 2, k+j, opts, ids, targets, batch)

	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	w2 := comm.NewWorld(2)
	results := make([][]float32, 2)
	w2.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: 123})
		if err := tr.Load(snap); err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < j; s++ {
			tr.Step(ids, targets, batch)
		}
		results[c.Rank()] = tr.GatheredParams()
	})
	for r := 0; r < 2; r++ {
		if d := testutil.MaxDiff(results[r], ref[r]); d > 1e-3 {
			t.Errorf("rank %d: elastic restore diverged by %g", r, d)
		}
	}
}

// fp16 compute checkpoints the fp32 master shards, not the halves the
// kernels read. The loss scale is fixed low enough never to overflow: the
// scaler is not part of a Snapshot.
func TestSaveLoadFP16PreservesMasters(t *testing.T) {
	cfg := testConfig()
	const n, batch = 2, 4
	ids, targets := model.SyntheticBatch(7, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, FP16Compute: true, InitialLossScale: 256}

	ref := runZeRO(t, cfg, StageOSGrad, n, 5, opts, ids, targets, batch)

	var blob []byte
	w1 := comm.NewWorld(n)
	w1.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < 2; s++ {
			tr.Step(ids, targets, batch)
		}
		if snap := tr.Save(); snap != nil {
			blob, _ = encode(snap)
		}
	})
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	w2 := comm.NewWorld(n)
	results := make([][]float32, n)
	w2.Run(func(c *comm.Comm) {
		o := opts
		o.Seed = 55
		tr := MustNew(c, cfg, o)
		if err := tr.Load(snap); err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < 3; s++ {
			tr.Step(ids, targets, batch)
		}
		results[c.Rank()] = tr.GatheredParams()
	})
	for r := 0; r < n; r++ {
		if d := testutil.MaxDiff(results[r], ref[r]); d != 0 {
			t.Errorf("rank %d: fp16 resume diverged by %g (master precision lost?)", r, d)
		}
	}
}

// Load checks the whole snapshot before it writes anything: every
// malformed snapshot is refused with an error, not a panic, and leaves the
// trainer's state — all CaptureShard sees, clock included — bit for bit as
// it was.
func TestLoadValidation(t *testing.T) {
	cfg := testConfig()
	const batch = 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
		defer tr.Close()
		tr.Step(ids, targets, batch)
		good, err := tr.Save().Regroup(2) // two slabs, so one can go missing
		if err != nil {
			t.Error(err)
			return
		}
		// The trainer moves past the snapshot and holds a pending
		// micro-batch, so a write to the accumulator would show too.
		tr.Step(ids, targets, batch)
		tr.Forward(ids, targets, batch)
		tr.Backward()
		before, hdr := tr.CaptureShard(nil)

		parts := comm.Partition(good.NumParams, good.WorldSize)
		edit := func(f func(s *Snapshot)) *Snapshot {
			s := *good
			s.Slabs = slices.Clone(good.Slabs)
			f(&s)
			return &s
		}
		for _, row := range []struct {
			name string
			snap *Snapshot
		}{
			{"nil", nil},
			{"size mismatch", &Snapshot{NumParams: 1}},
			{"short slab", edit(func(s *Snapshot) { s.Slabs[0] = s.Slabs[0][:len(s.Slabs[0])-1] })},
			{"missing slab", edit(func(s *Snapshot) { s.Slabs = s.Slabs[:1] })},
			{"tensor-count mismatch", edit(func(s *Snapshot) { // momentum only: an SGD snapshot
				for r, p := range parts {
					s.Slabs[r] = s.Slabs[r][:2*p.Len()]
				}
			})},
			{"accumulator missing", edit(func(s *Snapshot) { s.AccumMicros = 1 })},
			{"negative steps", edit(func(s *Snapshot) { s.OptSteps = -1 })},
			{"negative loss scale", edit(func(s *Snapshot) { s.LossScale = -1 })},
		} {
			if err := tr.Load(row.snap); err == nil {
				t.Errorf("%s: loaded", row.name)
			}
			after, h := tr.CaptureShard(nil)
			if bitDiff(after, before) != "" || !reflect.DeepEqual(h, hdr) {
				t.Errorf("%s: the refused Load changed the trainer's state", row.name)
				before, hdr = after, h // name only the rows that write
			}
		}
		// Control: the intact snapshot loads and does move the state.
		if err := tr.Load(good); err != nil {
			t.Error(err)
		}
		if after, _ := tr.CaptureShard(nil); bitDiff(after, before) == "" {
			t.Error("control: loading the snapshot left the state alone")
		}
	})
}

func TestSnapshotEncodeDecode(t *testing.T) {
	// Three params over four ranks, two optimizer tensors: rank r holds
	// param r, then its momentum and variance; rank 3's slab is empty.
	s := &Snapshot{
		Stage: StageOSGrad, WorldSize: 4, NumParams: 3, OptSteps: 7,
		Slabs: [][]float32{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}, {}},
	}
	blob, err := encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.OptSteps != 7 || !reflect.DeepEqual(got.Slabs, s.Slabs) {
		t.Errorf("round trip mangled snapshot: %+v", got)
	}
	one, err := got.Regroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(one.Slabs[0], want) {
		t.Errorf("regrouped for one rank: %v, want params then each tensor, whole: %v", one.Slabs[0], want)
	}
	if _, err := DecodeSnapshot([]byte("garbage")); err == nil {
		t.Error("expected decode error")
	}
}

// Save builds no Ψ-wide state: on the shape below (Ψ = 3,692,032, Adam,
// stage 3, 4 ranks) a warmed Save + WriteTo(io.Discard) allocates at most
// twice the model state's 12Ψ bytes process-wide — each slab once as
// captured and once as gathered to rank 0, the ZELC bytes streamed through
// one small buffer. Scattering the slabs into Ψ-wide tensors and encoding
// them into one blob took 5.2×.
func TestSaveAllocatesNoPsiWideState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals vary under -race")
	}
	cfg := model.Config{Layers: 4, Hidden: 256, Heads: 4, Vocab: 2048, Seq: 32}
	const n = 4
	var grew uint64
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
		defer tr.Close()
		save := func() {
			if s := tr.Save(); s != nil {
				if _, err := s.WriteTo(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}
		save() // warm-up
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			// A warm world's wire pool holds a copy for each of the n-1
			// slabs that can be in flight at once; one Save pools fewer
			// when its sends do not overlap.
			slab, _ := tr.CaptureShard(nil)
			wire := make([][]float32, n-1)
			for i := range wire {
				wire[i] = w.WirePool().Get(len(slab))
			}
			for _, b := range wire {
				w.WirePool().Put(b)
			}
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		save()
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			grew = after.TotalAlloc - before.TotalAlloc
		}
	})
	state := uint64(12 * cfg.ParamCount()) // fp32 master + Adam's two moments
	t.Logf("Save + WriteTo allocated %d bytes, %.2f× the model state", grew, float64(grew)/float64(state))
	if grew > 2*state {
		t.Errorf("Save + WriteTo allocated %d bytes, %.2f× the %d-byte model state; want ≤ 2×",
			grew, float64(grew)/float64(state), state)
	}
}
