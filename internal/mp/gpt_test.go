package mp

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/testutil"
)

// MP-degree invariance over training: loss and the trained parameters are
// independent of how many ranks the blocks are sharded over (degree 1 is
// the reference).
func TestGPTDegreeInvariance(t *testing.T) {
	const batch, steps, lr = 2, 3, 0.01
	ids, targets := model.SyntheticBatch(41, batch, mpCfg.Seq, mpCfg.Vocab)
	ref := model.New(mpCfg, 9)
	var refLoss float64
	for s := 0; s < steps; s++ {
		refLoss = sgd(ref, ids, targets, batch, lr)
	}
	for _, n := range []int{2, 4} {
		params := make([][]float32, n)
		losses := make([]float64, n)
		runSharded(n, mpCfg, 9, func(c *comm.Comm, m *model.Model) {
			for s := 0; s < steps; s++ {
				losses[c.Rank()] = sgd(m, ids, targets, batch, lr)
			}
			params[c.Rank()] = m.Params
		})
		for r, l := range losses {
			if math.Abs(l-refLoss) > 1e-4 {
				t.Errorf("n=%d rank %d: loss %v != degree-1 %v", n, r, l, refLoss)
			}
		}
		if d := testutil.MaxDiff(assemble(mpCfg, params), ref.Params); d > 1e-3 {
			t.Errorf("n=%d: trained parameters differ from degree 1 by %g", n, d)
		}
	}
}

// Replicated gradients (embeddings, layernorms, row-parallel biases) come out
// bitwise identical on every MP rank with no synchronization of their own:
// the "g" all-reduces leave every rank the same sub-layer outputs.
func TestGPTReplicatedGradsAgreeAcrossRanks(t *testing.T) {
	const n = 4
	ids, targets := model.SyntheticBatch(43, 2, mpCfg.Seq, mpCfg.Vocab)
	grads := make([][]float32, n)
	var l model.Layout
	runSharded(n, mpCfg, 7, func(c *comm.Comm, m *model.Model) {
		m.Loss(ids, targets, 2)
		m.Backward()
		grads[c.Rank()] = m.Grads
		if c.Rank() == 0 {
			l = m.Layout
		}
	})
	for _, seg := range l.Segments {
		if isSharded(seg.Name) {
			continue
		}
		for r := 1; r < n; r++ {
			if d := testutil.MaxDiff(grads[r][seg.Lo:seg.Hi], grads[0][seg.Lo:seg.Hi]); d != 0 {
				t.Errorf("%s: ranks 0 and %d differ by %g", seg.Name, r, d)
			}
		}
	}
}

// Full-model finite differences at MP=2 through the middle element of every
// tensor, embeddings and final layernorm included: a replicated parameter is
// perturbed on both ranks, a sharded one on rank 0 only.
func TestGPTGradientCheck(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 8, Heads: 2, Vocab: 19, Seq: 8}
	ids, targets := model.SyntheticBatch(47, 1, cfg.Seq, cfg.Vocab)
	var mu sync.Mutex
	runSharded(2, cfg, 13, func(c *comm.Comm, m *model.Model) {
		m.Loss(ids, targets, 1)
		m.Backward()
		const eps = 1e-3
		for _, seg := range m.Layout.Segments {
			i := seg.Lo + seg.Len()/2
			moves := !isSharded(seg.Name) || c.Rank() == 0
			orig := m.Params[i]
			if moves {
				m.Params[i] = orig + eps
			}
			lp := m.Loss(ids, targets, 1)
			if moves {
				m.Params[i] = orig - eps
			}
			lm := m.Loss(ids, targets, 1)
			m.Params[i] = orig
			if !moves {
				continue
			}
			numeric := (lp - lm) / (2 * eps)
			got := float64(m.Grads[i])
			if math.Abs(got-numeric) > 2e-2*math.Max(math.Abs(numeric), math.Abs(got))+2e-3 {
				mu.Lock()
				t.Errorf("rank %d %s grad[%d]: analytic %.6f numeric %.6f", c.Rank(), seg.Name, i, got, numeric)
				mu.Unlock()
			}
		}
	})
}

// The paper's deployment (§10.1): Megatron MP inside the node, data
// parallelism across. A 2 MP × 2 DP grid — each replica on half the batch,
// Grads averaged over the DP groups — trains to the same parameters as one
// MP=2 replica on the full batch.
func TestGPT2DTrainingMatchesSingleReplica(t *testing.T) {
	const mpSize, batch, steps, lr = 2, 4, 3, 0.01
	ids, targets := model.SyntheticBatch(53, batch, mpCfg.Seq, mpCfg.Vocab)

	ref := make([][]float32, mpSize)
	runSharded(mpSize, mpCfg, 17, func(c *comm.Comm, m *model.Model) {
		for s := 0; s < steps; s++ {
			sgd(m, ids, targets, batch, lr)
		}
		ref[c.Rank()] = m.Params
	})

	grid := make([][]float32, 2*mpSize)
	comm.NewWorld(2 * mpSize).Run(func(c *comm.Comm) {
		mpGroup := mustGroup(c.MPGroup(mpSize))
		dpGroup := mustGroup(c.DPGroup(mpSize))
		m := model.NewSharded(mpCfg, 17, mpGroup)
		sIDs, sTg, per := model.ShardBatch(ids, targets, batch, 2, dpGroup.Rank())
		for s := 0; s < steps; s++ {
			m.ZeroGrads()
			m.Loss(sIDs, sTg, per)
			m.Backward()
			dpGroup.AllReduceAvg(m.Grads)
			testutil.AXPY(-lr, m.Grads, m.Params)
		}
		grid[c.Rank()] = m.Params
	})
	for r, p := range grid {
		if d := testutil.MaxDiff(p, ref[r%mpSize]); d > 2e-4 {
			t.Errorf("rank %d: 2D-trained shard differs from the single replica's by %g", r, d)
		}
	}
}

// The full model learns under MP: loss falls over training.
func TestGPTLearns(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 19, Seq: 8}
	ids, targets := model.SyntheticBatch(61, 4, cfg.Seq, cfg.Vocab)
	var first, last float64
	runSharded(2, cfg, 5, func(c *comm.Comm, m *model.Model) {
		for s := 0; s < 25; s++ {
			l := sgd(m, ids, targets, 4, 0.05)
			if c.Rank() == 0 {
				if s == 0 {
					first = l
				}
				last = l
			}
		}
	})
	if last >= first-0.3 {
		t.Errorf("GPT under MP did not learn: %.4f -> %.4f", first, last)
	}
}

// A shard's NumParams is its local count: the replicated tensors whole and
// 1/N of the sharded ones, so N shards hold ParamCount plus N-1 extra copies
// of the replicated tensors. At degree 1 it is ParamCount.
func TestGPTNumParams(t *testing.T) {
	want := mpCfg.ParamCount()
	replicated := 0
	for _, s := range model.BuildLayout(mpCfg).Segments {
		if !isSharded(s.Name) {
			replicated += s.Len()
		}
	}
	for _, n := range []int{1, 2, 4} {
		counts := make([]int, n)
		runSharded(n, mpCfg, 1, func(c *comm.Comm, m *model.Model) { counts[c.Rank()] = m.NumParams() })
		total := 0
		for _, k := range counts {
			total += k
		}
		if got := total - (n-1)*replicated; got != want {
			t.Errorf("n=%d: shards hold %d params (%v) less %d replicated copies = %d, want %d (model's ParamCount)",
				n, total, counts, n-1, got, want)
		}
	}
}
