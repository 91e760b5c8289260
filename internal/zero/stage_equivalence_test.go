package zero

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// lossTrajectory trains `steps` steps at the given options on an n-rank
// world and returns rank 0's per-step local loss.
func lossTrajectory(cfg model.Config, n, steps, batch int, opts Options, ids, targets []int) []float64 {
	w := comm.NewWorld(n)
	out := make([]float64, steps)
	w.Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		defer tr.Close()
		for s := 0; s < steps; s++ {
			l := tr.Step(ids, targets, batch)
			if c.Rank() == 0 {
				out[s] = l
			}
		}
	})
	return out
}

// The unified Stage API's contract: every stage, bucketed or not, with or
// without comm/compute overlap, walks a bit-identical loss trajectory —
// partitioning and scheduling change memory and wall-clock, never the
// optimization (§2.2.3). Compared as exact float64 equality against the
// synchronous unbucketed stage-0 reference.
func TestStageLossTrajectoriesBitIdentical(t *testing.T) {
	cfg := testConfig()
	const n, steps, batch = 4, 6, 4
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)

	base := Options{Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	ref := lossTrajectory(cfg, n, steps, batch, base, ids, targets) // StageDDP, sync, unbucketed

	for _, stage := range AllStages {
		for _, overlap := range []bool{false, true} {
			for _, prefetch := range []bool{false, true} {
				for _, bucket := range []int{0, 193} {
					opts := base
					opts.Stage = stage
					opts.Overlap = overlap
					opts.Prefetch = prefetch
					opts.BucketElems = bucket
					got := lossTrajectory(cfg, n, steps, batch, opts, ids, targets)
					for s := range ref {
						if got[s] != ref[s] {
							t.Errorf("%v overlap=%v prefetch=%v bucket=%d step %d: loss %.17g != reference %.17g",
								stage, overlap, prefetch, bucket, s, got[s], ref[s])
							break
						}
					}
				}
			}
		}
	}
}

// Golden trajectory for the reference configuration (4 ranks, 6 steps,
// seed 7, lr 1e-3). Every stage must reproduce these values; the tolerance
// absorbs only cross-platform FMA contraction, not algorithm drift.
func TestStageLossTrajectoryGolden(t *testing.T) {
	golden := []float64{
		2.9445802206352325,
		2.8941595407783911,
		2.8542632414986735,
		2.8249211907196261,
		2.8020191789647293,
		2.7825545866287298,
	}
	cfg := testConfig()
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	for _, prefetch := range []bool{false, true} {
		got := lossTrajectory(cfg, n, len(golden), batch, Options{
			Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
			Overlap: true, Prefetch: prefetch, BucketElems: 193,
		}, ids, targets)
		for s, want := range golden {
			if math.Abs(got[s]-want) > 1e-9*math.Abs(want) {
				t.Errorf("prefetch=%v step %d: loss %.17g, want golden %.17g", prefetch, s, got[s], want)
			}
		}
		// Sanity: the trajectory actually descends.
		if got[len(got)-1] >= got[0] {
			t.Errorf("prefetch=%v: loss did not fall: %v -> %v", prefetch, got[0], got[len(got)-1])
		}
	}
}

// ParseStage round-trips every canonical spelling and rejects junk.
func TestParseStage(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Stage
	}{
		{"0", StageDDP}, {"ddp", StageDDP}, {"DP", StageDDP},
		{"1", StageOS}, {"pos", StageOS}, {"os", StageOS},
		{"2", StageOSGrad}, {"os+g", StageOSGrad}, {"Pos+g", StageOSGrad},
		{"3", StageFull}, {"full", StageFull}, {"pos+g+p", StageFull},
	} {
		got, err := ParseStage(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseStage(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "4", "-1", "zero", "stage2"} {
		if _, err := ParseStage(bad); err == nil {
			t.Errorf("ParseStage(%q) should fail", bad)
		}
	}
	for i, s := range AllStages {
		if int(s) != i || !s.Valid() {
			t.Errorf("AllStages[%d] = %v, want stage %d", i, s, i)
		}
	}
	if StageDDP.Valid() != true || Stage(4).Valid() || Stage(-1).Valid() {
		t.Error("Valid() boundaries wrong")
	}
	// Stage names render the paper's vocabulary.
	if fmt.Sprint(StageFull) != "Pos+g+p" || fmt.Sprint(StageDDP) != "DP" {
		t.Errorf("stage names wrong: %v %v", StageFull, StageDDP)
	}
}
