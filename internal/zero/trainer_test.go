package zero

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func testConfig() model.Config {
	return model.Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 19, Seq: 8}
}

const (
	testSeed = 7
	testLR   = 1e-3
)

// MustNew is New for configurations the tests know to be valid; it panics
// on error.
func MustNew(c *comm.Comm, cfg model.Config, opts Options) *Trainer {
	t, err := New(c, cfg, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// runZeRO trains `steps` steps at the given stage/world size and returns
// every rank's final full parameter buffer (GatheredParams: stage 3
// gathers before reporting, and fp16 compute reports the halves).
func runZeRO(t *testing.T, cfg model.Config, stage Stage, n, steps int, opts Options,
	ids, targets []int, batch int) [][]float32 {
	t.Helper()
	opts.Stage = stage
	w := comm.NewWorld(n)
	out := make([][]float32, n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < steps; s++ {
			tr.Step(ids, targets, batch)
		}
		out[c.Rank()] = tr.GatheredParams()
	})
	return out
}

// runDDP is the baseline trajectory on the same world: the unified trainer
// at stage 0 (replicated DDP), unbucketed.
func runDDP(cfg model.Config, n, steps int, ids, targets []int, batch int) []float32 {
	w := comm.NewWorld(n)
	out := make([][]float32, n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{Stage: StageDDP, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
		for s := 0; s < steps; s++ {
			tr.Step(ids, targets, batch)
		}
		out[c.Rank()] = tr.GatheredParams()
	})
	return out[0]
}

// The core ZeRO claim (§2.2.3, §5): partitioning model states "does not
// change the model optimization method", so every stage must reproduce the
// baseline DDP (stage 0) trajectory *bitwise* — the collectives use the
// same ring schedule and Adam is elementwise.
func TestStagesMatchDDPBitwise(t *testing.T) {
	cfg := testConfig()
	const steps, batch = 5, 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	for _, n := range []int{1, 2, 4} {
		want := runDDP(cfg, n, steps, ids, targets, batch)
		for _, stage := range []Stage{StageOS, StageOSGrad, StageFull} {
			got := runZeRO(t, cfg, stage, n, steps,
				Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}, ids, targets, batch)
			for r := 0; r < n; r++ {
				if d := testutil.MaxDiff(got[r], want); d != 0 {
					t.Errorf("n=%d %v rank %d: diverged from DDP by %g", n, stage, r, d)
				}
			}
		}
	}
}

// Against single-process full-batch training the stages match within fp32
// reduction rounding.
func TestStagesMatchSingleProcess(t *testing.T) {
	cfg := testConfig()
	const steps, batch = 5, 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	ref := model.New(cfg, testSeed)
	opt := optimizer.NewAdam(cfg.ParamCount(), testLR)
	for s := 0; s < steps; s++ {
		ref.ZeroGrads()
		ref.Loss(ids, targets, batch)
		ref.Backward()
		opt.Step(ref.Params, ref.Grads)
	}
	for _, stage := range AllStages {
		got := runZeRO(t, cfg, stage, 4, steps,
			Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}, ids, targets, batch)
		if d := testutil.MaxDiff(got[0], ref.Params); d > 2e-4 {
			t.Errorf("%v vs single process: max diff %g", stage, d)
		}
	}
}

// Gradient bucketing (the CB optimization applied to the reduce-scatter)
// must not change the numbers: same ring partition per wave, same sums.
func TestBucketedReduceScatterBitwise(t *testing.T) {
	cfg := testConfig()
	const batch = 4
	ids, targets := model.SyntheticBatch(13, batch, cfg.Seq, cfg.Vocab)
	unfused := runZeRO(t, cfg, StageOSGrad, 4, 3, Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}, ids, targets, batch)
	bucketed := runZeRO(t, cfg, StageOSGrad, 4, 3,
		Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, BucketElems: 257}, ids, targets, batch)
	if d := testutil.MaxDiff(unfused[0], bucketed[0]); d != 0 {
		t.Errorf("bucketing changed the trajectory by %g", d)
	}
}

// §7 communication-volume identities, measured on the wire. Total elements
// sent across all ranks per step:
//
//	DDP / Pos / Pos+g:  2(N-1)Ψ   (all-reduce, or RS + param all-gather)
//	Pos+g+p:            3(N-1)Ψ   (two gather passes + RS, no param AG)
func TestCommunicationVolumeIdentities(t *testing.T) {
	cfg := testConfig()
	psi := int64(cfg.ParamCount())
	const batch = 4
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	for _, n := range []int{2, 4} {
		for _, tc := range []struct {
			stage Stage
			mult  int64
		}{
			{StageDDP, 2}, {StageOS, 2}, {StageOSGrad, 2}, {StageFull, 3},
		} {
			w := comm.NewWorld(n)
			w.Run(func(c *comm.Comm) {
				// Trainer construction performs no communication, so the
				// counters hold exactly one step's traffic.
				tr := MustNew(c, cfg, Options{Stage: tc.stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed})
				tr.Step(ids, targets, batch)
			})
			want := tc.mult * int64(n-1) * psi
			if got := w.TotalElemsSent(); got != want {
				t.Errorf("n=%d %v: total sent %d elems, want %d (= %dΨ(N-1))",
					n, tc.stage, got, want, tc.mult)
			}
		}
	}
}

// A stage-2 step on the dense benchmark's shape — 2 ranks, 4096-element
// buckets, overlap — pins rank 0's traffic: 3,255,296 bytes and 218
// messages, every step alike, the first included (New leaves only the
// owned shard current, as Update does). At two ranks each non-empty ring
// chunk is one message on rank 0, a send or a receive, and empty chunks
// send nothing, so the count is an identity over the schedule: the bucket
// reduce-scatters' non-empty chunks plus, because the post-step all-gather
// runs group by group in the next Forward, one ring all-gather per layer
// group. Buckets are framed per gradient unit, 17 to each of a block's
// three units where one frame over the whole block needed 49.
func TestStageTwoStepWireCounts(t *testing.T) {
	cfg := model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32}
	const n, batch, steps = 2, 8, 3
	const wantMsgs, wantBytes = 218, 3255296
	ids, targets := model.SyntheticBatch(4, batch, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, Options{
			Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 3e-3}, Seed: 4, BucketElems: 4096, Overlap: true,
		})
		defer tr.Close()
		chunks := func(parts []comm.Range) (k int) {
			for _, p := range parts {
				if p.Len() > 0 {
					k++
				}
			}
			return k
		}
		identity := 0
		for _, parts := range tr.plan.parts {
			identity += chunks(parts)
		}
		for _, g := range tr.groups {
			identity += chunks(intersect(tr.parts, g.Lo, g.Hi))
		}
		if c.Rank() == 0 && identity != wantMsgs {
			t.Errorf("bucket chunks plus layer-group chunks = %d, want %d", identity, wantMsgs)
		}
		for i := 0; i < steps; i++ {
			before := w.Stats(0)
			tr.Step(ids, targets, batch)
			if c.Rank() != 0 {
				continue
			}
			after := w.Stats(0)
			if msgs, bytes := after.Messages-before.Messages, after.BytesSent-before.BytesSent; msgs != wantMsgs || bytes != wantBytes {
				t.Errorf("step %d: rank 0 recorded %d messages and sent %d bytes, want %d and %d",
					i, msgs, bytes, wantMsgs, wantBytes)
			}
		}
	})
}

// The partition is a contract (§5.1-§5.3): whenever a rank trusts only its
// own shard of the compute copy — after New, Load and each applied Update at
// stages 1-3, and from the top of each Backward at stage 3 — nothing reads
// the rest before a gather overwrites it, no parameter window is read
// before its gather lands, and at every stage nothing reads a gradient
// window once it is released. The poisoned run fills exactly those ranges
// with NaN on every rank — the untrusted compute copy (every stage-3
// window), each parameter window as a gather is handed it (outside the
// rank's own shard, which lives there at stages 1-2), each gradient window
// as it is released — and must match an unpoisoned twin bit for bit:
// stages 0-3 × sync/overlap/prefetch × fp32/fp16 × k ∈ {1, 2}
// micro-batches, across a Save/Load and, under fp16, an overflow-skip
// boundary. Four blocks make each block window serve two groups a pass. The
// optimizer shard is Ψ/Nd at stages 1-3.
func TestStage3ResidencyAndShards(t *testing.T) {
	cfg := testConfig()
	cfg.Layers = 4
	schedules := []struct {
		name              string
		overlap, prefetch bool
	}{{"sync", false, false}, {"overlap", true, false}, {"prefetch", true, true}}
	for _, stage := range AllStages {
		for _, fp16 := range []bool{false, true} {
			for _, sc := range schedules {
				for _, k := range []int{1, 2} {
					name := fmt.Sprintf("%v fp16=%v %s k=%d", stage, fp16, sc.name, k)
					opts := Options{
						Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
						Overlap: sc.overlap, Prefetch: sc.prefetch, FP16Compute: fp16,
					}
					if fp16 {
						opts.InitialLossScale = poisonLossScale
					}
					want := runPartitionContract(t, name, cfg, opts, k, false)
					got := runPartitionContract(t, name, cfg, opts, k, true)
					got.diff(t, name, want)
					if fp16 && (got.skips == 0 || got.applied == 0) {
						t.Errorf("%s: %d skipped and %d applied updates, want an overflow-skip boundary", name, got.skips, got.applied)
					}
				}
			}
		}
	}
}

// poisonLossScale makes the contract run's first one or two fp16 updates
// overflow and the rest apply.
const poisonLossScale = 1 << 17

// poisonHalf is the binary16 quiet NaN the contract poisons halves with.
const poisonHalf tensor.Half = 0x7e00

// contractRun is what the poisoned run must reproduce: every rank's
// micro-batch losses and final GatheredParams, and rank 0's final Save.
type contractRun struct {
	losses         [][]float64
	gathered       [][]float32
	snap           *Snapshot
	skips, applied int // rank 0's skipped and applied updates
}

// runPartitionContract trains 4 steps of k micro-batches on 4 ranks,
// reloading rank 0's snapshot after step 2. With poison, every range the
// trainer stops trusting is filled with NaN at the point it does so; every
// such point of the compute copy also checks that the trainer marked it (so
// the run cannot pass vacuously), every Forward must leave no poison
// behind, and no Backward may leave any in the accumulator.
func runPartitionContract(t *testing.T, name string, cfg model.Config, opts Options, k int, poison bool) contractRun {
	t.Helper()
	const n, batch, steps, reload = 4, 8, 4, 2
	ids, targets := model.SyntheticBatch(5, batch, cfg.Seq, cfg.Vocab)
	micro := batch / k
	mt := micro * cfg.Seq
	out := contractRun{losses: make([][]float64, n), gathered: make([][]float32, n)}
	mid := make([]*Snapshot, n)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		defer tr.Close()
		r, own := c.Rank(), tr.Owned()
		partitioned := opts.Stage != StageDDP
		if psi := tr.Model.NumParams(); partitioned && (tr.opt.Len() != own.Len() || tr.opt.Len() > psi/n+1) {
			t.Errorf("%s rank %d: optimizer shard %d params, want ≈Ψ/N = %d", name, r, tr.opt.Len(), psi/n)
		}
		released, handed := 0, 0
		tr.onRelease = func(_ int, buf []float32) {
			released++
			if poison {
				tensor.Fill(buf, float32(math.NaN()))
			}
		}
		// Every parameter window is poisoned as it is handed to a gather,
		// outside the range the rank keeps its own shard in.
		tr.onHandOver = func(_ int, buf comm.Buffer, keep comm.Range) {
			handed++
			if poison {
				poisonBuf(buf, keep)
			}
		}
		// handedOver checks a pass's hand-overs: one per layer group at
		// stage 3, none or all at stages 1-2.
		handedOver := func(pass string, s, j int) {
			if h := handed; h != len(tr.groups) && (opts.Stage == StageFull || h != 0) {
				t.Errorf("%s rank %d step %d micro %d: %s handed %d parameter windows to gathers, want %d",
					name, r, s, j, pass, h, len(tr.groups))
			}
			handed = 0
		}
		// marked requires the trainer to trust only its shard and poisons
		// the rest.
		marked := func(when string) {
			if !partitioned {
				return
			}
			if !tr.stale {
				t.Errorf("%s rank %d %s: compute copy not marked stale", name, r, when)
			}
			if poison {
				poisonParams(tr)
			}
		}
		marked("after New")
		leaked := false
		for s := 0; s < steps; s++ {
			for j := 0; j < k; j++ {
				loss := tr.Forward(ids[j*mt:(j+1)*mt], targets[j*mt:(j+1)*mt], micro)
				if partitioned {
					handedOver("Forward", s, j)
				}
				out.losses[r] = append(out.losses[r], loss)
				if at := poisonedParam(tr); at != "" && !leaked {
					leaked = true // one report per rank; the twin diff names the rest
					t.Errorf("%s rank %d step %d micro %d: %s is NaN after Forward", name, r, s, j, at)
				}
				if opts.Stage == StageFull && poison {
					poisonParams(tr) // Backward marks the copy stale before it reads anything
				}
				released = 0
				tr.Backward()
				if opts.Stage == StageFull {
					handedOver("Backward", s, j)
					marked(fmt.Sprintf("after step %d micro %d Backward", s, j))
				}
				if released != len(tr.units) {
					t.Errorf("%s rank %d step %d micro %d: Backward released %d gradient windows, want one per gradient unit (%d)",
						name, r, s, j, released, len(tr.units))
				}
				// An fp16 overflow may leave NaN in the accumulator of a
				// window the vote will skip; the twin diff covers that one.
				if i := slices.IndexFunc(tr.accum, func(v float32) bool { return v != v }); i >= 0 && !tr.overflow && !leaked {
					leaked = true
					g := tr.groups[slices.IndexFunc(tr.groups, func(g model.Segment) bool { return g.Hi > tr.dom.Lo+i })]
					t.Errorf("%s rank %d step %d micro %d: accumulator[%d] is NaN after Backward: the gradient window of %s was read after its release",
						name, r, s, j, i, g.Name)
				}
			}
			skips := tr.OverflowSteps()
			tr.Update()
			if tr.OverflowSteps() == skips {
				marked(fmt.Sprintf("after step %d Update", s))
			}
			if s == reload-1 {
				mid[r] = tr.Save()
				c.Barrier() // rank 0's snapshot is published before anyone loads it
				if err := tr.Load(mid[0]); err != nil {
					t.Error(err)
					return
				}
				marked("after Load")
			}
		}
		out.gathered[r] = tr.GatheredParams()
		if snap := tr.Save(); r == 0 {
			out.snap = snap
			out.skips = tr.OverflowSteps()
			out.applied = steps - out.skips
		}
	})
	return out
}

// diff reports every way got departs bitwise from its unpoisoned twin,
// naming the first differing offset of each buffer.
func (got contractRun) diff(t *testing.T, name string, want contractRun) {
	t.Helper()
	for r := range want.losses {
		for i, l := range want.losses[r] {
			if i >= len(got.losses[r]) || math.Float64bits(got.losses[r][i]) != math.Float64bits(l) {
				t.Errorf("%s rank %d: micro-batch %d loss differs from the unpoisoned twin (%v vs %v)", name, r, i, got.losses[r], want.losses[r])
				break
			}
		}
		if d := bitDiff(got.gathered[r], want.gathered[r]); d != "" {
			t.Errorf("%s rank %d: GatheredParams%s in the unpoisoned twin", name, r, d)
		}
	}
	if got.snap == nil || want.snap == nil {
		t.Fatalf("%s: rank 0 Save returned no snapshot", name)
	}
	for r := range want.snap.Slabs {
		if d := bitDiff(got.snap.Slabs[r], want.snap.Slabs[r]); d != "" {
			t.Errorf("%s: Save's rank %d slab%s in the unpoisoned twin", name, r, d)
		}
	}
}

// poisonParams fills every parameter the rank holds outside its shard
// with NaN: the Ψ-long compute copy outside the owned range at stages 0-2,
// every parameter window at stage 3 but the own part of the group it still
// holds since the last publish.
func poisonParams(tr *Trainer) {
	if tr.pwins == nil {
		poisonBuf(tr.full, tr.Owned())
	}
	for _, w := range tr.pwins {
		var keep comm.Range
		if w.kept >= 0 {
			g := tr.groups[w.kept]
			keep = intersect([]comm.Range{tr.Owned()}, g.Lo, g.Hi)[0]
			keep.Lo, keep.Hi = keep.Lo-g.Lo, keep.Hi-g.Lo
		}
		poisonBuf(w.buf, keep)
	}
}

// poisonedParam names the first NaN in the parameters the rank holds
// outside its master, or returns "".
func poisonedParam(tr *Trainer) string {
	if i := firstNaN(tr.full); i >= 0 {
		return fmt.Sprintf("compute copy[%d]", i)
	}
	for j, w := range tr.pwins {
		if i := firstNaN(w.buf); i >= 0 {
			return fmt.Sprintf("parameter window %d [%d]", j, i)
		}
	}
	return ""
}

// poisonBuf fills b outside keep with NaN, at b's width.
func poisonBuf(b comm.Buffer, keep comm.Range) {
	if b.Half != nil {
		fillOutside(b.Half, keep, poisonHalf)
		return
	}
	fillOutside(b.Data, keep, float32(math.NaN()))
}

// firstNaN returns the first offset of b holding a NaN, or -1.
func firstNaN(b comm.Buffer) int {
	if b.Half != nil {
		return slices.IndexFunc(b.Half, tensor.Half.IsNaN)
	}
	return slices.IndexFunc(b.Data, func(v float32) bool { return v != v })
}

// fillOutside sets every element of s outside own to v.
func fillOutside[T any](s []T, own comm.Range, v T) {
	for i := range s {
		if i < own.Lo || i >= own.Hi {
			s[i] = v
		}
	}
}

// bitDiff describes the first offset at which got departs from want in
// bits, or returns "" when they are bitwise equal.
func bitDiff(got, want []float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf(" has %d elements, %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("[%d] = %g, %g", i, got[i], want[i])
		}
	}
	return ""
}

// fp16 compute: all three stages execute the identical sequence of rounded
// operations, so they agree bitwise with each other, and training still
// learns.
func TestFP16StagesAgreeAndLearn(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 13, Seq: 12}
	const n, batch, steps = 2, 4, 15
	ids, targets := model.SyntheticBatch(17, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Optimizer: optimizer.Spec{LR: 5e-3}, Seed: 23, FP16Compute: true}

	s1 := runZeRO(t, cfg, StageOS, n, steps, opts, ids, targets, batch)
	s2 := runZeRO(t, cfg, StageOSGrad, n, steps, opts, ids, targets, batch)
	s3 := runZeRO(t, cfg, StageFull, n, steps, opts, ids, targets, batch)
	if d := testutil.MaxDiff(s1[0], s2[0]); d != 0 {
		t.Errorf("fp16 Pos vs Pos+g differ by %g", d)
	}
	if d := testutil.MaxDiff(s1[0], s3[0]); d != 0 {
		t.Errorf("fp16 Pos vs Pos+g+p differ by %g", d)
	}

	// Learning check.
	w := comm.NewWorld(n)
	losses := make([]float64, n)
	firsts := make([]float64, n)
	opts.Stage = StageOSGrad
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		for s := 0; s < steps; s++ {
			l := tr.Step(ids, targets, batch)
			if s == 0 {
				firsts[c.Rank()] = l
			}
			losses[c.Rank()] = l
		}
	})
	for r := range losses {
		if losses[r] >= firsts[r]-0.1 {
			t.Errorf("rank %d: fp16 training did not learn (%.4f -> %.4f)", r, firsts[r], losses[r])
		}
	}
}

// Activation checkpointing inside the ZeRO trainer must not change the
// trajectory.
func TestZeROWithCheckpointingBitwise(t *testing.T) {
	cfg := testConfig()
	const batch = 4
	ids, targets := model.SyntheticBatch(29, batch, cfg.Seq, cfg.Vocab)
	plain := runZeRO(t, cfg, StageOSGrad, 2, 3, Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}, ids, targets, batch)
	ckpt := runZeRO(t, cfg, StageOSGrad, 2, 3,
		Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, Checkpoint: true}, ids, targets, batch)
	if d := testutil.MaxDiff(plain[0], ckpt[0]); d != 0 {
		t.Errorf("checkpointing changed the trajectory by %g", d)
	}
}

// Invalid configurations surface as errors from New — before any
// collective is in flight — rather than panics mid-step.
func TestTrainerRejectsInvalidConfigs(t *testing.T) {
	for _, bad := range []Stage{-1, 4} {
		w := comm.NewWorld(1)
		w.Run(func(c *comm.Comm) {
			if _, err := New(c, testConfig(), Options{Stage: bad, Optimizer: optimizer.Spec{LR: testLR}}); err == nil {
				t.Errorf("expected error for stage %d", bad)
			}
		})
	}
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		for _, bad := range []int{3, -2, 5} {
			_, err := New(c, testConfig(), Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, NodeSize: bad})
			if !errors.Is(err, comm.ErrTopology) {
				t.Errorf("NodeSize %d: err = %v, want comm.ErrTopology", bad, err)
			}
		}
		// Degenerate-but-valid layouts collapse to flat routing: the
		// scheduler's collectives record no inter-node traffic.
		for _, tc := range []struct {
			nodeSize int
			hier     bool
		}{{0, false}, {1, false}, {4, false}, {2, true}} {
			tr, err := New(c, testConfig(), Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, NodeSize: tc.nodeSize})
			if err != nil {
				t.Errorf("NodeSize %d: %v", tc.nodeSize, err)
				continue
			}
			before := c.World().Stats(c.Rank()).PerGroup["hier-inter"].Elems
			tr.Scheduler().Stream(StreamGrad).AllReduce(comm.F32Buf(make([]float32, 8))).Wait()
			hier := c.World().Stats(c.Rank()).PerGroup["hier-inter"].Elems > before
			if hier != tc.hier {
				t.Errorf("NodeSize %d: two-level routing %v, want %v", tc.nodeSize, hier, tc.hier)
			}
			tr.Close()
		}
	})
}

// The model state a rank actually holds, summed from the live buffers
// (len × element width), against perfmodel.LiveModelState, the closed form
// of the layout, for N ∈ {2, 4, 8} and L ∈ {1, 4} layers. dom is this
// rank's Ψ/N share (all of Ψ at stage 0), and gradients live in windows of
// W = 4·(|embeddings| + |ln_f| + 2·max|unit|) bytes, a unit being a third
// of a block. Stages 0-2 hold a Ψ-long compute copy; the fp32 master must
// be its domain range in fp32 and is a buffer of its own under fp16
// compute, where the half shard is the copy's range: 4Ψ + 12·dom + W and
// 2Ψ + 16·dom + W. Stage 3 holds no Ψ-long buffer: the parameters live in
// windows of Wp = |embeddings| + |ln_f| + min(2, L)·max|block| elements at
// the compute width beside the master (and, in fp16, a 2-byte half shard):
// 16·dom + W + 4·Wp and 18·dom + W + 2·Wp. The test sums the buffers itself,
// the gradient windows apart, and both sums and ResidentBytes must equal
// the closed form's; before and after a step, no trainer-owned model holds
// parameters or gradients of its own, and no stage-3 window reaches Ψ
// elements. The §3.1 prediction, perfmodel.ModelStateBytes (16Ψ/N at
// stage 3), is logged beside it.
func TestTrainerModelStateAccounting(t *testing.T) {
	const batch = 8
	for _, layers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Layers = layers
		psi := int64(cfg.ParamCount())
		ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
		for _, n := range []int{2, 4, 8} {
			w := comm.NewWorld(n)
			w.Run(func(c *comm.Comm) {
				s := int64(comm.Partition(int(psi), n)[c.Rank()].Len())
				for _, fp16 := range []bool{false, true} {
					for _, stage := range AllStages {
						tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: 1, FP16Compute: fp16})
						dom := s
						if stage == StageDDP {
							dom = psi
						}
						full := stage != StageFull
						pred := perfmodel.LiveModelState(perfmodel.Shape(cfg), int(stage), dom, fp16)
						want := pred.Total()
						name := fmt.Sprintf("L=%d N=%d %v fp16=%v rank %d", layers, n, stage, fp16, c.Rank())
						check := func(when string) {
							m := tr.Model
							live, grads := tr.full.Bytes()+4*int64(len(tr.accum)), int64(0)
							for _, gw := range tr.gwins {
								grads += 4 * int64(len(gw.buf))
							}
							if grads != pred.Grads {
								t.Errorf("%s %s: gradient windows %d B, want W = %d B", name, when, grads, pred.Grads)
							}
							live += grads
							for _, pw := range tr.pwins {
								live += pw.buf.Bytes()
								if pw.buf.Len() >= int(psi) {
									t.Errorf("%s %s: a %d-element parameter window", name, when, pw.buf.Len())
								}
							}
							if full && !fp16 {
								if &tr.master[0] != &tr.full.Data[tr.dom.Lo] {
									t.Errorf("%s %s: the fp32 master is not the domain's range of the compute copy", name, when)
								}
							} else {
								live += 4 * int64(len(tr.master))
							}
							if fp16 && !full {
								live += 2 * int64(len(tr.shard.Half))
							}
							for _, st := range tr.opt.State() {
								live += 4 * int64(len(st))
							}
							if live != want {
								t.Errorf("%s %s: live model state %d B, want %d B", name, when, live, want)
							}
							if got := tr.ResidentBytes(); got != live {
								t.Errorf("%s %s: ResidentBytes %d B, live buffers %d B", name, when, got, live)
							}
							if m.Params != nil || m.ParamsH != nil || m.Grads != nil {
								t.Errorf("%s %s: model holds %d fp32 and %d fp16 parameters and %d gradients of its own",
									name, when, len(m.Params), len(m.ParamsH), len(m.Grads))
							}
							if !full && tr.full.Len() != 0 {
								t.Errorf("%s %s: a %d-element compute copy at stage 3", name, when, tr.full.Len())
							}
						}
						check("after New")
						tr.Step(ids, targets, batch)
						check("after a step")
						if c.Rank() == 0 && n == 4 {
							pred := perfmodel.ModelStateBytes(psi, int(stage), n)
							t.Logf("L=%d %v fp16=%v: resident %d B = %.2fΨ, perfmodel.ModelStateBytes %.0f B = %.2fΨ",
								layers, stage, fp16, want, float64(want)/float64(psi), pred, pred/float64(psi))
						}
						tr.Close()
					}
				}
			})
		}
	}
}
