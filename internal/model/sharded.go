package model

import "fmt"

// Megatron-style tensor model parallelism (MP) — the paper's baseline system
// (§10.1) and the setting ZeRO-R's Pa partitions activations in (§6.1) — on
// the one transformer block of block.go. An N-way MP group splits every
// block across its ranks: the QKV projection by output columns (each rank
// owns heads/N whole attention heads, which attend locally), the attention
// output projection by the matching input rows, FC1 by a contiguous 4h/N
// column slice and FC2 by the same rows. Embeddings, layernorms, the
// row-parallel biases and the final layernorm are replicated. A block then
// needs four all-reduces of its [M,h] activations: the row-parallel outputs
// in forward ("g") and the column-parallel input gradients in backward
// ("f") — six under checkpointing, whose recompute repeats the forward two:
// the 12·M·h per block §8 prices Pa against.

// Reducer is the communication a Megatron shard needs: an all-reduce over
// its model-parallel group. *comm.Comm implements it — the whole world as
// one MP group, or a sub-communicator from Comm.MPGroup (the MP slice of an
// MP × DP grid).
type Reducer interface {
	AllReduce(x []float32)
	Rank() int
	Size() int
}

// NewSharded builds rank g.Rank()'s Megatron shard of New(cfg, seed): the
// full model is initialized exactly as New does and this rank keeps its
// slice in a local Layout (Params, Grads and NumParams are local). Every
// rank of g must call it with the same arguments, and then run Loss and
// Backward in lockstep, which all-reduce over g. A nil or size-1 g returns
// New(cfg, seed) itself. Heads must divide over g; the fp16 layout has no
// MP path (SetFP16Compute panics on a shard).
func NewSharded(cfg Config, seed int64, g Reducer) *Model {
	full := New(cfg, seed)
	if g == nil || g.Size() == 1 {
		return full
	}
	n := g.Size()
	if cfg.Heads%n != 0 {
		panic(fmt.Sprintf("model: %d heads do not split over %d model-parallel ranks", cfg.Heads, n))
	}
	l := buildLayout(cfg, n)
	m := &Model{
		Cfg:    cfg,
		Layout: l,
		Params: make([]float32, l.Total),
		Grads:  make([]float32, l.Total),
		mp:     g,
	}
	shardParams(m.Params, l, full.Params, full.Layout, g.Rank())
	return m
}

// shardParams copies rank's Megatron slice of every tensor of src (laid out
// by full) into dst (laid out by l, one rank's shard of the same config).
func shardParams(dst []float32, l Layout, src []float32, full Layout, rank int) {
	k, h := l.heads*l.dh, full.heads*full.dh
	for i, seg := range l.Segments {
		d, s := dst[seg.Lo:seg.Hi], src[full.Segments[i].Lo:full.Segments[i].Hi]
		switch {
		case hasSuffix(seg.Name, ".wqkv"), hasSuffix(seg.Name, ".bqkv"):
			// Rows are [Q|K|V], h columns each: the owned heads' columns of
			// every section, kept in the same [Q|K|V] order.
			sliceCols(d, s, h, rank*k, k)
		case hasSuffix(seg.Name, ".w1"), hasSuffix(seg.Name, ".b1"):
			sliceCols(d, s, full.ffn, rank*l.ffn, l.ffn)
		case hasSuffix(seg.Name, ".wproj"), hasSuffix(seg.Name, ".w2"):
			copy(d, s[rank*len(d):]) // a contiguous block of rows
		default:
			copy(d, s) // replicated
		}
	}
}

// sliceCols copies columns [lo, lo+w) of the row-major, width-wide matrix
// src into dst.
func sliceCols(dst, src []float32, width, lo, w int) {
	for r := 0; r < len(dst)/w; r++ {
		copy(dst[r*w:(r+1)*w], src[r*width+lo:])
	}
}

// allReduce sums x over the model-parallel group; a no-op off a shard.
func (m *Model) allReduce(x []float32) {
	if m.mp != nil {
		m.mp.AllReduce(x)
	}
}
