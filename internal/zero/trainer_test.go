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
		out[c.Rank()] = append([]float32(nil), tr.Model.Params...)
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
// buckets, overlap — pins rank 0's traffic: 3,255,296 bytes and 210
// messages, every step alike, the first included (New leaves only the
// owned shard current, as Update does). At two ranks each non-empty ring
// chunk is one message on rank 0, a send or a receive, and empty chunks
// send nothing, so the count is an identity over the schedule: the bucket
// reduce-scatters' non-empty chunks plus, because the post-step all-gather
// runs group by group in the next Forward, one ring all-gather per layer
// group.
func TestStageTwoStepWireCounts(t *testing.T) {
	cfg := model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32}
	const n, batch, steps = 2, 8, 3
	const wantMsgs, wantBytes = 210, 3255296
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
// the rest before a gather overwrites it, and at every stage nothing reads a
// gradient window once it is released. The poisoned run fills exactly those
// ranges with NaN on every rank and must match an unpoisoned twin bit for
// bit: stages 0-3 × sync/overlap/prefetch × fp32/fp16 × k ∈ {1, 2}
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
		released := 0
		tr.onRelease = func(_ int, buf []float32) {
			released++
			if poison {
				tensor.Fill(buf, float32(math.NaN()))
			}
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
				out.losses[r] = append(out.losses[r], loss)
				if i := poisonedParam(tr); i >= 0 && !leaked {
					leaked = true // one report per rank; the twin diff names the rest
					t.Errorf("%s rank %d step %d micro %d: compute copy[%d] is NaN after Forward", name, r, s, j, i)
				}
				if opts.Stage == StageFull && poison {
					poisonParams(tr) // Backward marks the copy stale before it reads anything
				}
				released = 0
				tr.Backward()
				if opts.Stage == StageFull {
					marked(fmt.Sprintf("after step %d micro %d Backward", s, j))
				}
				if released != len(tr.groups) {
					t.Errorf("%s rank %d step %d micro %d: Backward released %d gradient windows, want one per layer group (%d)",
						name, r, s, j, released, len(tr.groups))
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

// poisonParams fills the compute copy outside the rank's shard with NaN:
// Params, or the halves of ParamsH under FP16Compute.
func poisonParams(tr *Trainer) {
	if h := tr.params.Half; h != nil {
		fillOutside(h, tr.Owned(), poisonHalf)
		return
	}
	fillOutside(tr.params.Data, tr.Owned(), float32(math.NaN()))
}

// poisonedParam returns the first offset of the compute copy holding a NaN,
// or -1.
func poisonedParam(tr *Trainer) int {
	if h := tr.params.Half; h != nil {
		return slices.IndexFunc(h, tensor.Half.IsNaN)
	}
	return slices.IndexFunc(tr.params.Data, func(v float32) bool { return v != v })
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
// (len × element width), against the closed form of the layout, for
// N ∈ {2, 4, 8} and L ∈ {1, 4} layers. Only the optimizer state, the fp32
// master and the accumulator are partitioned (dom: this rank's Ψ/N share,
// all of Ψ at stage 0), and the master is a buffer of its own only under
// fp16 compute — in fp32 it must stay a window of Params; the compute copy
// stays Ψ-long at every stage, and gradients live in windows of
// W = 4·(|embeddings| + |ln_f| + min(2, L)·max|block|) bytes. The test sums
// the buffers itself and ResidentBytes must agree. No trainer-owned model
// holds a Ψ-long gradient buffer, before or after a step. The §3.1
// prediction, perfmodel.ModelStateBytes (16Ψ/N at stage 3), is logged
// beside it: the gap is what a resident partition has to close.
func TestTrainerModelStateAccounting(t *testing.T) {
	const batch = 8
	for _, layers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Layers = layers
		psi := int64(cfg.ParamCount())
		g := model.BuildLayout(cfg).LayerSegments(cfg.Layers)
		window := 4 * int64(g[0].Len()+g[cfg.Layers+1].Len()+min(2, layers)*g[1].Len())
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
						// Params + accum + Adam's m and v in fp32: 4Ψ + 12·dom + W.
						// fp16 compute trades Params for the 2-byte ParamsH and
						// adds the fp32 master: 2Ψ + 16·dom + W.
						want := 4*psi + 12*dom + window
						if fp16 {
							want = 2*psi + 16*dom + window
						}
						check := func(when string) {
							m := tr.Model
							live := 4*int64(len(m.Params)) + 2*int64(len(m.ParamsH)) + 4*int64(len(m.Grads)) +
								4*int64(len(tr.accum)+len(tr.emb.buf)+len(tr.lnf.buf))
							for _, bw := range tr.blocks {
								live += 4 * int64(len(bw.buf))
							}
							// In fp32 the master is a window of Params, already counted.
							if len(m.Params) == 0 || &tr.master[0] != &m.Params[tr.dom.Lo] {
								live += 4 * int64(len(tr.master))
							}
							for _, st := range tr.opt.State() {
								live += 4 * int64(len(st))
							}
							if live != want {
								t.Errorf("L=%d N=%d %v fp16=%v rank %d %s: live model state %d B, want %d B", layers, n, stage, fp16, c.Rank(), when, live, want)
							}
							if got := tr.ResidentBytes(); got != live {
								t.Errorf("L=%d N=%d %v fp16=%v rank %d %s: ResidentBytes %d B, live buffers %d B", layers, n, stage, fp16, c.Rank(), when, got, live)
							}
							if len(m.Grads) != 0 {
								t.Errorf("L=%d N=%d %v fp16=%v rank %d %s: model holds a %d-element gradient buffer", layers, n, stage, fp16, c.Rank(), when, len(m.Grads))
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
