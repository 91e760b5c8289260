// mp2d: the paper's deployment topology (§10.1) at laptop scale — Megatron
// tensor model parallelism inside each "node", data parallelism across
// them. An 8-rank world becomes a 4-way-MP × 2-way-DP grid; each replica
// trains a 1-layer transformer sharded over its MP group
// (model.NewSharded: head-parallel attention + tensor-parallel MLP) on its
// half of the batch, and the DP groups average the gradients.
package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/model"
)

func main() {
	const (
		mpSize = 4
		dpSize = 2
		world  = mpSize * dpSize
		perDP  = 4 // batch rows per replica
	)
	cfg := model.Config{Layers: 1, Hidden: 64, Heads: 8, Vocab: 32, Seq: 16}
	batch := perDP * dpSize
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)

	fmt.Printf("topology: %d ranks = %d-way MP (in-node) x %d-way DP (across nodes)\n",
		world, mpSize, dpSize)
	fmt.Printf("block: hidden %d, %d attention heads (%d heads per MP rank)\n\n",
		cfg.Hidden, cfg.Heads, cfg.Heads/mpSize)

	w := comm.NewWorld(world)
	w.Run(func(c *comm.Comm) {
		// Comm.Split carves the world into process groups MPI-style:
		// MPGroup/DPGroup are Split(color=node, key=rank) and
		// Split(color=slot, key=rank) with "mp"/"dp" traffic labels.
		mpGroup, err := c.MPGroup(mpSize)
		if err != nil {
			panic(err)
		}
		dpGroup, err := c.DPGroup(mpSize)
		if err != nil {
			panic(err)
		}

		m := model.NewSharded(cfg, 42, mpGroup)
		sIDs, sTargets, per := model.ShardBatch(ids, targets, batch, dpSize, dpGroup.Rank())
		loss := m.Loss(sIDs, sTargets, per)
		m.Backward()

		// DP sync: every rank of a DP group holds the same shard, so the
		// whole gradient buffer averages in one all-reduce.
		dpGroup.AllReduceAvg(m.Grads)

		if c.Rank() == 0 {
			fmt.Printf("rank 0: MP group rank %d/%d, DP group rank %d/%d, replica loss %.4f\n",
				mpGroup.Rank(), mpGroup.Size(), dpGroup.Rank(), dpGroup.Size(), loss)
			seg := map[string]model.Segment{}
			for _, s := range m.Layout.Segments {
				seg[s.Name] = s
			}
			h := cfg.Hidden
			fmt.Printf("rank 0 attention shard: WQKV %d elems (1/%d of %d), WProj %d elems\n",
				seg["block0.attn.wqkv"].Len(), mpSize, h*3*h, seg["block0.attn.wproj"].Len())
			fmt.Printf("rank 0 holds %d of the model's %d parameters\n", m.NumParams(), cfg.ParamCount())
		}
	})

	fmt.Println("\nper-rank traffic (elements sent, per group label):")
	for r := 0; r < world; r++ {
		st := w.Stats(r)
		fmt.Printf("  rank %d: total %6d | MP group %6d | DP group %6d\n",
			r, st.ElemsSent,
			st.PerGroup["mp"].Elems,
			st.PerGroup["dp"].Elems)
	}
	fmt.Println("\nMP traffic stays inside the 'node' (NVSwitch); only the DP sync crosses —")
	fmt.Println("the topology split that lets ZeRO scale where cross-node MP collapses (Fig. 2).")
}
