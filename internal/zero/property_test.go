package zero

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/testutil"
)

// randomCase is a randomly drawn (architecture, world, stage, overlap)
// combination for the cross-stage equivalence property.
type randomCase struct {
	cfg     model.Config
	n       int
	stage   Stage
	batch   int
	overlap bool
	bucket  int
}

func genCase(r *rand.Rand) randomCase {
	heads := []int{1, 2, 4}[r.Intn(3)]
	hidden := heads * (2 + r.Intn(3)) * 2 // divisible by heads, 4..24ish
	n := 1 + r.Intn(4)
	return randomCase{
		cfg: model.Config{
			Layers: 1 + r.Intn(3),
			Hidden: hidden,
			Heads:  heads,
			Vocab:  5 + r.Intn(30),
			Seq:    4 + r.Intn(6),
		},
		n:       n,
		stage:   AllStages[r.Intn(len(AllStages))],
		batch:   n * (1 + r.Intn(2)), // divisible by world size
		overlap: r.Intn(2) == 1,
		bucket:  []int{0, 64, 257}[r.Intn(3)],
	}
}

// Property: for ANY architecture, world size, stage, bucket size and
// overlap setting, two steps of training produce bitwise the same
// parameters as the synchronous unbucketed stage-0 (DDP) baseline. This is
// the paper's central equivalence claim quantified over the configuration
// space rather than at hand-picked points.
func TestPropertyAnyConfigStageEqualsDDP(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	check := func(tc randomCase) bool {
		ids, targets := model.SyntheticBatch(99, tc.batch, tc.cfg.Seq, tc.cfg.Vocab)
		const steps = 2

		w := comm.NewWorld(tc.n)
		ddpOut := make([][]float32, tc.n)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, tc.cfg, Options{Stage: StageDDP, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1})
			for s := 0; s < steps; s++ {
				tr.Step(ids, targets, tc.batch)
			}
			ddpOut[c.Rank()] = tr.GatheredParams()
		})

		w2 := comm.NewWorld(tc.n)
		zeroOut := make([][]float32, tc.n)
		w2.Run(func(c *comm.Comm) {
			tr := MustNew(c, tc.cfg, Options{
				Stage: tc.stage, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
				BucketElems: tc.bucket, Overlap: tc.overlap,
			})
			defer tr.Close()
			for s := 0; s < steps; s++ {
				tr.Step(ids, targets, tc.batch)
			}
			zeroOut[c.Rank()] = tr.GatheredParams()
		})
		for r := 0; r < tc.n; r++ {
			if testutil.MaxDiff(zeroOut[r], ddpOut[r]) != 0 {
				t.Logf("mismatch for %+v", tc)
				return false
			}
		}
		return true
	}
	cfgQuick := &quick.Config{
		MaxCount: 12,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genCase(r))
		},
	}
	if err := quick.Check(check, cfgQuick); err != nil {
		t.Error(err)
	}
}

// Property: the communication-volume identity holds for any world size —
// total elements sent per step is exactly mult·(N-1)·Ψ.
func TestPropertyVolumeIdentityAnyWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	cfg := model.Config{Layers: 1, Hidden: 8, Heads: 2, Vocab: 7, Seq: 4}
	psi := int64(cfg.ParamCount())
	for n := 1; n <= 6; n++ {
		ids, targets := model.SyntheticBatch(5, n, cfg.Seq, cfg.Vocab)
		for _, tc := range []struct {
			stage Stage
			mult  int64
		}{{StageDDP, 2}, {StageOS, 2}, {StageOSGrad, 2}, {StageFull, 3}} {
			w := comm.NewWorld(n)
			w.Run(func(c *comm.Comm) {
				tr := MustNew(c, cfg, Options{Stage: tc.stage, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1})
				tr.Step(ids, targets, n)
			})
			want := tc.mult * int64(n-1) * psi
			if got := w.TotalElemsSent(); got != want {
				t.Errorf("n=%d %v: %d elems, want %d", n, tc.stage, got, want)
			}
		}
	}
}
