package zero

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/perfmodel"
)

// New allocates what the rank keeps and little more: at stage 3 no rank
// allocates a Ψ-long parameter buffer, and under FP16Compute no rank
// allocates fp32 parameters outside its master. Four ranks build a trainer
// each, and the bytes the process allocates meanwhile must stay within the
// four ranks' live model state (perfmodel.LiveModelState, the sums
// TestTrainerModelStateAccounting pins) plus 1/8 of it for the layout,
// bucket plan, gather slots and streams. Eight narrow blocks keep the
// windows small beside Ψ, so a Ψ-long buffer shows: 4Ψ bytes is over 60%
// of the stage-3 fp32 sum.
func TestNewAllocatesItsLiveStateOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals vary under -race")
	}
	cfg := model.Config{Layers: 8, Hidden: 64, Heads: 4, Vocab: 64, Seq: 8}
	const n = 4
	psi := int64(cfg.ParamCount())
	parts := comm.Partition(int(psi), n)
	for _, tc := range []struct {
		stage Stage
		fp16  bool
	}{{StageFull, false}, {StageFull, true}, {StageOS, true}, {StageOSGrad, true}} {
		var live int64
		for _, p := range parts {
			live += perfmodel.LiveModelState(perfmodel.Shape(cfg), int(tc.stage), int64(p.Len()), tc.fp16).Total()
		}
		var before, after runtime.MemStats
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			tr := MustNew(c, cfg, Options{Stage: tc.stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, FP16Compute: tc.fp16})
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			c.Barrier()
			tr.Close()
		})
		grew := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%v fp16=%v: New allocated %d B on %d ranks, %.3f× their %d B of live model state",
			tc.stage, tc.fp16, grew, n, float64(grew)/float64(live), live)
		if grew > live+live/8 {
			t.Errorf("%v fp16=%v: New allocated %d B on %d ranks, %.2f× their %d B of live model state; want ≤ 1.125×",
				tc.stage, tc.fp16, grew, n, float64(grew)/float64(live), live)
		}
	}
}

// A layer group whose gather never ran has no parameter window bound, so
// its first read panics and names the group — in fp32 and under
// FP16Compute alike, where a read of stale halves used to surface as an
// fp16 overflow: the step was skipped and the loss scale backed off, with
// no error. After one clean step, every rank drops the same group's gather
// (so the collectives stay paired), for each group, at stages 1-3 with and
// without prefetch: in the forward pass, and at stage 3 in the backward
// pass alone. Each run must panic on every rank naming the group, before
// the Update, with the loss scale where the clean step left it.
func TestDroppedGatherPanicsNamingGroup(t *testing.T) {
	cfg := testConfig()
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(7, batch, cfg.Seq, cfg.Vocab)
	groups := model.BuildLayout(cfg).LayerSegments(cfg.Layers)
	for _, stage := range []Stage{StageOS, StageOSGrad, StageFull} {
		for _, fp16 := range []bool{false, true} {
			for _, prefetch := range []bool{false, true} {
				for _, bwd := range []bool{false, true} {
					if bwd && stage != StageFull {
						continue // stages 1-2 gather once, before Forward
					}
					for g, seg := range groups {
						name := fmt.Sprintf("%v fp16=%v prefetch=%v backward=%v drop %s", stage, fp16, prefetch, bwd, seg.Name)
						got := make([]string, n)
						w := comm.NewWorld(n)
						w.Run(func(c *comm.Comm) {
							tr := MustNew(c, cfg, Options{
								Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
								Overlap: prefetch, Prefetch: prefetch, FP16Compute: fp16,
								InitialLossScale: 256, // the clean step applies its update
							})
							defer tr.Close()
							// One clean step first: the windows it bound must
							// not outlive the Update that made them stale.
							tr.Step(ids, targets, batch)
							scale, skips, steps, dropping := tr.LossScale(), tr.OverflowSteps(), tr.opt.Steps(), !bwd
							tr.dropGather = func(k int) bool { return dropping && k == g }
							defer func() {
								got[c.Rank()] = fmt.Sprint(recover())
								if tr.LossScale() != scale || tr.OverflowSteps() != skips || tr.opt.Steps() != steps {
									t.Errorf("%s rank %d: loss scale %g → %g, overflow skips %d → %d, optimizer steps %d → %d across the panic",
										name, c.Rank(), scale, tr.LossScale(), skips, tr.OverflowSteps(), steps, tr.opt.Steps())
								}
							}()
							tr.Forward(ids, targets, batch)
							dropping = true
							tr.Backward()
							tr.Update()
						})
						want := "parameters of layer group " + seg.Name + " read with no window bound"
						for r, msg := range got {
							if !strings.Contains(msg, want) {
								t.Errorf("%s rank %d: recovered %q, want a panic containing %q", name, r, msg, want)
							}
						}
					}
				}
			}
		}
	}
}
