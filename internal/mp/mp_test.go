// Package mp holds the tests of Megatron-style tensor model parallelism
// (MP), the paper's baseline system (§10.1): model.NewSharded on comm
// groups. The implementation is model's one transformer block
// (internal/model/sharded.go); this directory has no non-test code.
package mp

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/zero"
)

var mpCfg = model.Config{Layers: 2, Hidden: 16, Heads: 4, Vocab: 19, Seq: 8}

// runSharded runs fn on every rank of an n-rank MP group, each holding its
// model.NewSharded(cfg, seed) shard.
func runSharded(n int, cfg model.Config, seed int64, fn func(c *comm.Comm, m *model.Model)) *comm.World {
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) { fn(c, model.NewSharded(cfg, seed, c)) })
	return w
}

// isSharded reports whether a tensor is split over the MP group.
func isSharded(name string) bool {
	for _, s := range []string{".wqkv", ".bqkv", ".wproj", ".w1", ".b1", ".w2"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// shardIndex is the Megatron split, written out here as the reference: for
// each local parameter of rank's n-way shard, the index of the full-model
// parameter it holds. The QKV projection keeps the owned heads' h/n columns
// of each of its [Q|K|V] sections and the output projection the matching
// rows; FC1 keeps a contiguous 4h/n slice of columns and FC2 the same rows;
// every other tensor is replicated.
func shardIndex(cfg model.Config, n, rank int) []int {
	h := cfg.Hidden
	k, f := h/n, 4*h/n
	var out []int
	// cols appends columns [c0, c0+w) of rows row-major rows of width width
	// starting at lo.
	cols := func(lo, rows, width, c0, w int) {
		for r := 0; r < rows; r++ {
			for c := 0; c < w; c++ {
				out = append(out, lo+r*width+c0+c)
			}
		}
	}
	for _, s := range model.BuildLayout(cfg).Segments {
		switch {
		case strings.HasSuffix(s.Name, ".wqkv"):
			cols(s.Lo, 3*h, h, rank*k, k)
		case strings.HasSuffix(s.Name, ".bqkv"):
			cols(s.Lo, 3, h, rank*k, k)
		case strings.HasSuffix(s.Name, ".wproj"):
			cols(s.Lo+rank*k*h, k, h, 0, h)
		case strings.HasSuffix(s.Name, ".w1"):
			cols(s.Lo, h, 4*h, rank*f, f)
		case strings.HasSuffix(s.Name, ".b1"):
			cols(s.Lo, 1, 4*h, rank*f, f)
		case strings.HasSuffix(s.Name, ".w2"):
			cols(s.Lo+rank*f*h, f, h, 0, h)
		default:
			cols(s.Lo, 1, s.Len(), 0, s.Len())
		}
	}
	return out
}

// assemble scatters per-rank shard buffers back into the full layout.
func assemble(cfg model.Config, shards [][]float32) []float32 {
	out := make([]float32, cfg.ParamCount())
	for r, s := range shards {
		for i, j := range shardIndex(cfg, len(shards), r) {
			out[j] = s[i]
		}
	}
	return out
}

func sgd(m *model.Model, ids, targets []int, batch int, lr float32) float64 {
	m.ZeroGrads()
	l := m.Loss(ids, targets, batch)
	m.Backward()
	tensor.AXPY(-lr, m.Grads, m.Params)
	return l
}

// checkShardSlices checks the tensors named by sel on 2- and 4-way shards:
// a sharded tensor keeps exactly 1/N of its elements on each rank and a
// replicated one all of them; each rank holds New's initial values at the
// reference split; and the sharded slices tile the full tensor exactly once.
func checkShardSlices(t *testing.T, sel func(name string) bool) {
	t.Helper()
	ref := model.New(mpCfg, 3)
	full := model.BuildLayout(mpCfg)
	for _, n := range []int{2, 4} {
		runSharded(n, mpCfg, 3, func(c *comm.Comm, m *model.Model) {
			idx := shardIndex(mpCfg, n, c.Rank())
			if len(idx) != m.NumParams() {
				t.Errorf("n=%d rank %d: %d local params, the split has %d", n, c.Rank(), m.NumParams(), len(idx))
				return
			}
			for i, seg := range m.Layout.Segments {
				fs := full.Segments[i]
				if seg.Name != fs.Name || !sel(seg.Name) {
					continue
				}
				want := fs.Len()
				if isSharded(seg.Name) {
					want /= n
				}
				if seg.Len() != want {
					t.Errorf("n=%d rank %d %s: %d local elems, want %d", n, c.Rank(), seg.Name, seg.Len(), want)
					continue
				}
				for j := seg.Lo; j < seg.Hi; j++ {
					if m.Params[j] != ref.Params[idx[j]] {
						t.Errorf("n=%d rank %d %s: local elem %d is not New's elem %d", n, c.Rank(), seg.Name, j, idx[j])
						break
					}
				}
			}
		})
		owners := make([]int, full.Total)
		for r := 0; r < n; r++ {
			for _, j := range shardIndex(mpCfg, n, r) {
				owners[j]++
			}
		}
		for _, fs := range full.Segments {
			if !sel(fs.Name) || !isSharded(fs.Name) {
				continue
			}
			for j := fs.Lo; j < fs.Hi; j++ {
				if owners[j] != 1 {
					t.Fatalf("n=%d %s: full elem %d held by %d ranks, want 1", n, fs.Name, j, owners[j])
				}
			}
		}
	}
}

// The MLP's column/row split computes the unsharded MLP's gradients: after
// one forward+backward at degrees 2, 3 and 4, the FC1/FC2 weight and bias
// gradients, scattered back through the split, are the unsharded model's.
func TestParallelMLPMatchesSerial(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 24, Heads: 12, Vocab: 19, Seq: 6}
	ids, targets := model.SyntheticBatch(1, 2, cfg.Seq, cfg.Vocab)
	ref := model.New(cfg, 77)
	ref.Loss(ids, targets, 2)
	ref.Backward()
	for _, n := range []int{2, 3, 4} {
		grads := make([][]float32, n)
		runSharded(n, cfg, 77, func(c *comm.Comm, m *model.Model) {
			m.Loss(ids, targets, 2)
			m.Backward()
			grads[c.Rank()] = m.Grads
		})
		got := assemble(cfg, grads)
		for _, s := range model.BuildLayout(cfg).Segments {
			if !strings.Contains(s.Name, ".mlp.") {
				continue
			}
			if d := tensor.MaxDiff(got[s.Lo:s.Hi], ref.Grads[s.Lo:s.Hi]); d > 1e-4 {
				t.Errorf("n=%d %s: assembled gradient differs from the unsharded model's by %g", n, s.Name, d)
			}
		}
	}
}

// Each rank stores only its MLP shard: 1/N of FC1's weight and bias columns
// and of FC2's weight rows, FC2's bias whole.
func TestWeightSharding(t *testing.T) {
	checkShardSlices(t, func(name string) bool { return strings.Contains(name, ".mlp.") })
}

// MP traffic is all in the blocks' all-reduces of M·h activations, each
// costing 2·M·h·(N-1)/N ring elements per rank: 4 per block, 6 under
// checkpointing, at every degree, depth and vocabulary — embeddings, head
// and loss communicate nothing.
func TestMPCommVolume(t *testing.T) {
	const batch = 2
	for _, n := range []int{2, 4} {
		for _, layers := range []int{1, 2} {
			for _, vocab := range []int{19, 64} {
				for _, ckpt := range []bool{false, true} {
					cfg := mpCfg
					cfg.Layers, cfg.Vocab = layers, vocab
					ids, targets := model.SyntheticBatch(9, batch, cfg.Seq, cfg.Vocab)
					w := runSharded(n, cfg, 5, func(_ *comm.Comm, m *model.Model) {
						m.Checkpoint = ckpt
						m.Loss(ids, targets, batch)
						m.Backward()
					})
					perBlock := 4
					if ckpt {
						perBlock = 6
					}
					mh := batch * cfg.Seq * cfg.Hidden
					want := int64(layers * perBlock * 2 * mh * (n - 1) / n)
					for r := 0; r < n; r++ {
						st := w.Stats(r)
						if st.ElemsSent != want || st.PerCollective["allreduce"] != want {
							t.Errorf("n=%d layers=%d vocab=%d checkpoint=%v rank %d: sent %d elems (%d all-reduce), want %d",
								n, layers, vocab, ckpt, r, st.ElemsSent, st.PerCollective["allreduce"], want)
						}
					}
				}
			}
		}
	}
}

// §8's headline inequality, measured: Pa's extra all-gather traffic on a
// checkpointed sharded model is exactly 1/12 of its MP all-reduce traffic —
// under one tenth — for every shape.
func TestPaOverheadRatio(t *testing.T) {
	const n = 4
	for _, shape := range [][3]int{{2, 8, 16}, {1, 4, 32}, {4, 2, 8}} {
		batch, seq, hidden := shape[0], shape[1], shape[2]
		cfg := model.Config{Layers: 2, Hidden: hidden, Heads: 4, Vocab: 17, Seq: seq}
		ids, targets := model.SyntheticBatch(71, batch, seq, cfg.Vocab)
		traffic := func(pa bool) int64 {
			w := runSharded(n, cfg, 23, func(c *comm.Comm, m *model.Model) {
				m.Checkpoint = true
				if pa {
					sched := comm.NewScheduler(c)
					defer sched.Close()
					m.Store = zero.NewPartitionedStore(sched.Stream(zero.StreamCheckpoint), false)
				}
				m.Loss(ids, targets, batch)
				m.Backward()
			})
			return w.Stats(0).ElemsSent
		}
		mpVol := traffic(false)
		paVol := traffic(true) - mpVol
		if paVol <= 0 || 12*paVol != mpVol {
			t.Errorf("shape %v: Pa overhead %d elems, MP traffic %d, want exactly 1/12", shape, paVol, mpVol)
		}
		if ratio := float64(paVol) / float64(mpVol); ratio > 0.1 {
			t.Errorf("shape %v: Pa overhead ratio %.3f, want ≤ 0.1", shape, ratio)
		}
	}
}
