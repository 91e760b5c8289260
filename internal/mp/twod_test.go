package mp

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/testutil"
)

// mustGroup unwraps a group-construction result inside a rank goroutine;
// construction only fails on inconsistent topologies, which the tests
// exercise separately through the error path.
func mustGroup(g *comm.Comm, err error) *comm.Comm {
	if err != nil {
		panic(err)
	}
	return g
}

// The paper's deployment topology (§10.1), one step: a 4-rank world as a
// 2×2 grid — MP groups {0,1} and {2,3}, DP groups {0,2} and {1,3} — each
// replica running its shard on half the global batch and the DP groups
// averaging Grads. Every rank's averaged gradient is the MP=2 replica's
// full-batch gradient of the same shard, and the two replicas of a DP group
// hold it bitwise identically.
func TestTwoDimensionalMPxDP(t *testing.T) {
	const mpSize, dpSize, batch = 2, 2, 4
	cfg := model.Config{Layers: 1, Hidden: 16, Heads: 4, Vocab: 19, Seq: 6}
	ids, targets := model.SyntheticBatch(51, batch, cfg.Seq, cfg.Vocab)

	ref := make([][]float32, mpSize)
	runSharded(mpSize, cfg, 66, func(c *comm.Comm, m *model.Model) {
		m.Loss(ids, targets, batch)
		m.Backward()
		ref[c.Rank()] = m.Grads
	})

	grads := make([][]float32, mpSize*dpSize)
	comm.NewWorld(mpSize * dpSize).Run(func(c *comm.Comm) {
		mpGroup := mustGroup(c.MPGroup(mpSize))
		dpGroup := mustGroup(c.DPGroup(mpSize))
		m := model.NewSharded(cfg, 66, mpGroup)
		sIDs, sTg, per := model.ShardBatch(ids, targets, batch, dpSize, dpGroup.Rank())
		m.Loss(sIDs, sTg, per)
		m.Backward()
		dpGroup.AllReduceAvg(m.Grads)
		grads[c.Rank()] = m.Grads
	})

	for r, g := range grads {
		if d := testutil.MaxDiff(g, ref[r%mpSize]); d > 1e-4 {
			t.Errorf("rank %d: DP-averaged gradient differs from the full-batch replica's by %g", r, d)
		}
	}
	for local := 0; local < mpSize; local++ {
		if d := testutil.MaxDiff(grads[local], grads[local+mpSize]); d != 0 {
			t.Errorf("DP group %d: replicas disagree on the synced gradient by %g", local, d)
		}
	}
}

func TestGroupBroadcastAndReduceScatter(t *testing.T) {
	const world = 4
	w := comm.NewWorld(world)
	w.Run(func(c *comm.Comm) {
		g := mustGroup(c.Subgroup([]int{0, 1, 2, 3}))
		// Broadcast from group root 2.
		x := make([]float32, 5)
		if g.Rank() == 2 {
			for i := range x {
				x[i] = float32(i) + 10
			}
		}
		g.Broadcast(x, 2)
		if x[4] != 14 {
			t.Errorf("rank %d: broadcast got %v", c.Rank(), x)
		}
		// Reduce-scatter + all-gather = all-reduce.
		y := make([]float32, 9)
		for i := range y {
			y[i] = float32(c.Rank() + 1)
		}
		parts := comm.Partition(len(y), g.Size())
		g.ReduceScatter(y, parts)
		g.AllGather(y, parts)
		for i, v := range y {
			if v != 10 { // 1+2+3+4
				t.Errorf("rank %d: y[%d] = %v, want 10", c.Rank(), i, v)
			}
		}
	})
}

// Group construction surfaces structured errors (no panics): invalid member
// lists are comm.ErrGroup, indivisible MP widths are comm.ErrTopology.
func TestGroupValidation(t *testing.T) {
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		if c.Rank() != 0 {
			return
		}
		for name, members := range map[string][]int{
			"not a member": {1, 2},
			"duplicate":    {0, 0},
			"out of range": {0, 9},
		} {
			if _, err := c.Subgroup(members); !errors.Is(err, comm.ErrGroup) {
				t.Errorf("%s: err = %v, want comm.ErrGroup", name, err)
			}
		}
		if _, err := c.MPGroup(3); !errors.Is(err, comm.ErrTopology) {
			t.Error("indivisible mpSize must be comm.ErrTopology")
		}
	})
}
