package mp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/testutil"
)

// The MP degree is invisible to one forward+backward: at degrees 2 and 4
// every rank's loss is degree 1's, and every block tensor's gradient —
// sharded ones scattered back through the split — is the unsharded model's.
func TestParallelBlockDegreeInvariance(t *testing.T) {
	ids, targets := model.SyntheticBatch(21, 2, mpCfg.Seq, mpCfg.Vocab)
	ref := model.New(mpCfg, 33)
	refLoss := ref.Loss(ids, targets, 2)
	ref.Backward()
	for _, n := range []int{2, 4} {
		grads := make([][]float32, n)
		losses := make([]float64, n)
		runSharded(n, mpCfg, 33, func(c *comm.Comm, m *model.Model) {
			losses[c.Rank()] = m.Loss(ids, targets, 2)
			m.Backward()
			grads[c.Rank()] = m.Grads
		})
		for r, l := range losses {
			if math.Abs(l-refLoss) > 1e-5 {
				t.Errorf("n=%d rank %d: loss %v != degree-1 %v", n, r, l, refLoss)
			}
		}
		got := assemble(mpCfg, grads)
		for _, s := range model.BuildLayout(mpCfg).Segments {
			if s.Layer < 0 {
				continue
			}
			if d := testutil.MaxDiff(got[s.Lo:s.Hi], ref.Grads[s.Lo:s.Hi]); d > 1e-4 {
				t.Errorf("n=%d %s: gradient differs from degree 1 by %g", n, s.Name, d)
			}
		}
	}
}

// Finite differences at MP=4, one attention head per rank, through the
// first, middle and last element of every block tensor. A replicated
// parameter is perturbed on every rank, a sharded one on rank 0 only —
// either way exactly one logical parameter of the model moves.
func TestParallelBlockGradientCheck(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 8, Heads: 4, Vocab: 11, Seq: 4}
	ids, targets := model.SyntheticBatch(31, 1, cfg.Seq, cfg.Vocab)
	var mu sync.Mutex
	runSharded(4, cfg, 44, func(c *comm.Comm, m *model.Model) {
		m.Loss(ids, targets, 1)
		m.Backward()
		const eps = 1e-3
		for _, seg := range m.Layout.Segments {
			if seg.Layer < 0 {
				continue
			}
			moves := !isSharded(seg.Name) || c.Rank() == 0
			for _, i := range []int{seg.Lo, seg.Lo + seg.Len()/2, seg.Hi - 1} {
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
		}
	})
}

// Head sharding: each rank stores 1/N of the QKV projection (its heads'
// columns) and of the output projection (the matching rows), the output
// bias whole.
func TestAttentionWeightSharding(t *testing.T) {
	checkShardSlices(t, func(name string) bool { return strings.Contains(name, ".attn.") })
}

// countingReducer records the length of every all-reduce a shard issues.
type countingReducer struct {
	*comm.Comm
	sizes []int
}

func (r *countingReducer) AllReduce(x []float32) {
	r.sizes = append(r.sizes, len(x))
	r.Comm.AllReduce(x)
}

// §8's accounting, counted at the call sites: a block issues 2 all-reduces
// of M·h in forward and 2 in backward, and under checkpointing 2 more when
// Backward recomputes its forward. Embeddings, head and loss issue none.
func TestBlockAllReduceCount(t *testing.T) {
	const n, batch = 4, 2
	ids, targets := model.SyntheticBatch(3, batch, mpCfg.Seq, mpCfg.Vocab)
	mh := batch * mpCfg.Seq * mpCfg.Hidden
	for _, tc := range []struct {
		checkpoint        bool
		forward, backward int
	}{{false, 2, 2}, {true, 2, 4}} {
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			r := &countingReducer{Comm: c}
			m := model.NewSharded(mpCfg, 5, r)
			m.Checkpoint = tc.checkpoint
			m.Loss(ids, targets, batch)
			fwd := len(r.sizes)
			m.Backward()
			bwd := len(r.sizes) - fwd
			if fwd != mpCfg.Layers*tc.forward || bwd != mpCfg.Layers*tc.backward {
				t.Errorf("checkpoint=%v rank %d: %d forward + %d backward all-reduces, want %d + %d per block",
					tc.checkpoint, c.Rank(), fwd, bwd, tc.forward, tc.backward)
			}
			for i, s := range r.sizes {
				if s != mh {
					t.Errorf("checkpoint=%v rank %d: all-reduce %d has %d elems, want M·h = %d",
						tc.checkpoint, c.Rank(), i, s, mh)
				}
			}
		})
	}
}

// Heads must split evenly over the MP group.
func TestAttentionValidation(t *testing.T) {
	for _, tc := range []struct {
		n     int
		heads int
	}{{2, 3}, {3, 4}} {
		cfg := model.Config{Layers: 1, Hidden: 12, Heads: tc.heads, Vocab: 11, Seq: 4}
		comm.NewWorld(tc.n).Run(func(c *comm.Comm) {
			defer func() {
				if recover() == nil {
					t.Errorf("%d heads over %d ranks: expected panic", tc.heads, tc.n)
				}
			}()
			model.NewSharded(cfg, 1, c)
		})
	}
}
