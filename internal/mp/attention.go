package mp

import (
	"repro/internal/comm"
	"repro/internal/tensor"
)

// ParallelAttention is Megatron's head-parallel self-attention: the QKV
// projection is column-split so each MP rank owns a contiguous subset of
// attention heads and computes their attention entirely locally; the output
// projection is row-split, finishing with the "g" all-reduce. Together with
// ParallelMLP this gives the full Megatron transformer block: one forward
// and one backward all-reduce per sub-layer.
type ParallelAttention struct {
	g          Reducer
	hidden     int
	headsTotal int
	dh         int
	heads      comm.Range // owned head indices

	WQKV  []float32 // [hidden × 3·ow], local column layout [Q|K|V]
	BQKV  []float32 // [3·ow]
	WProj []float32 // [ow × hidden] (row shard)
	BProj []float32 // [hidden] (replicated)

	DWQKV  []float32
	DBQKV  []float32
	DWProj []float32
	DBProj []float32

	// saved forward state
	x     []float32
	qkv   []float32
	probs []float32
	ctx   []float32
	batch int
	seq   int
}

// NewParallelAttention builds this rank's head shard. heads must be
// divisible by the group size; hidden by heads. Full weight matrices are
// generated deterministically from seed and sliced, so any group size
// computes the same attention function.
func NewParallelAttention(g Reducer, hidden, heads int, seed int64) *ParallelAttention {
	if heads%g.Size() != 0 {
		panic("mp: heads must be divisible by the MP degree")
	}
	if hidden%heads != 0 {
		panic("mp: hidden must be divisible by heads")
	}
	dh := hidden / heads
	parts := comm.Partition(heads, g.Size())
	own := parts[g.Rank()]
	ow := own.Len() * dh

	a := &ParallelAttention{
		g: g, hidden: hidden, headsTotal: heads, dh: dh, heads: own,
		WQKV: make([]float32, hidden*3*ow), BQKV: make([]float32, 3*ow),
		WProj: make([]float32, ow*hidden), BProj: make([]float32, hidden),
		DWQKV: make([]float32, hidden*3*ow), DBQKV: make([]float32, 3*ow),
		DWProj: make([]float32, ow*hidden), DBProj: make([]float32, hidden),
	}
	// Slice the full [hidden × 3·hidden] QKV matrix: the owned columns are
	// [Q: own.Lo·dh..own.Hi·dh], shifted by hidden for K and 2·hidden for V.
	fullQKV := fullWeight(hidden, 3*hidden, seed)
	for i := 0; i < hidden; i++ {
		for s := 0; s < 3; s++ { // Q, K, V sections
			src := fullQKV[i*3*hidden+s*hidden+own.Lo*dh : i*3*hidden+s*hidden+own.Hi*dh]
			copy(a.WQKV[i*3*ow+s*ow:i*3*ow+(s+1)*ow], src)
		}
	}
	// Row shard of the full [hidden × hidden] projection.
	fullProj := fullWeight(hidden, hidden, seed+1)
	copy(a.WProj, fullProj[own.Lo*dh*hidden:own.Hi*dh*hidden])
	return a
}

// ownWidth returns ow = ownHeads·dh.
func (a *ParallelAttention) ownWidth() int { return a.heads.Len() * a.dh }

// Forward computes causal multi-head self-attention over the replicated
// input x[(batch·seq) × hidden] and returns the replicated output.
func (a *ParallelAttention) Forward(x []float32, batch, seq int) []float32 {
	m := batch * seq
	ow := a.ownWidth()
	a.x = append(a.x[:0], x...)
	a.batch, a.seq = batch, seq

	a.qkv = make([]float32, m*3*ow)
	tensor.MatMul(a.qkv, x, a.WQKV, m, a.hidden, 3*ow)
	tensor.AddBiasRows(a.qkv, a.BQKV, m, 3*ow)

	// The owned heads attend entirely locally: the shared core, over rows
	// of width 3·ow.
	nOwn := a.heads.Len()
	a.probs = make([]float32, batch*nOwn*seq*seq)
	a.ctx = make([]float32, m*ow)
	scratch := make([]float32, tensor.AttentionScratchLen(seq, a.dh))
	tensor.CausalAttention(a.ctx, a.probs, a.qkv, nil, batch, seq, nOwn, a.dh, scratch)

	y := make([]float32, m*a.hidden)
	tensor.MatMul(y, a.ctx, a.WProj, m, ow, a.hidden)
	a.g.AllReduce(y) // "g": sum the head-shard contributions
	tensor.AddBiasRows(y, a.BProj, m, a.hidden)
	return y
}

// Backward consumes the replicated dy and returns the replicated dx (the
// "f" all-reduce), accumulating the shard's weight gradients.
func (a *ParallelAttention) Backward(dy []float32) []float32 {
	m := a.batch * a.seq
	ow := a.ownWidth()

	tensor.BiasGradRows(a.DBProj, dy, m, a.hidden)
	dCtx := make([]float32, m*ow)
	tensor.MatMulBT(dCtx, dy, a.WProj, m, a.hidden, ow)
	tensor.MatMulATAdd(a.DWProj, a.ctx, dy, m, ow, a.hidden)

	dQKV := make([]float32, m*3*ow)
	scratch := make([]float32, tensor.AttentionScratchLen(a.seq, a.dh))
	tensor.CausalAttentionBackward(dQKV, dCtx, a.qkv, a.probs, a.batch, a.seq, a.heads.Len(), a.dh, scratch)

	tensor.MatMulATAdd(a.DWQKV, a.x, dQKV, m, a.hidden, 3*ow)
	tensor.BiasGradRows(a.DBQKV, dQKV, m, 3*ow)
	dx := make([]float32, m*a.hidden)
	tensor.MatMulBT(dx, dQKV, a.WQKV, m, 3*ow, a.hidden)
	a.g.AllReduce(dx) // "f": combine head-shard input gradients
	return dx
}
