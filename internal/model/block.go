package model

import "repro/internal/tensor"

// linear computes y[rows×n] = x[rows×k]·W + b for the weight matrix and
// bias at parameter offsets w and b. On a Megatron shard this is a
// column-parallel layer (QKV, FC1): W and b hold this rank's output columns.
func (m *Model) linear(y []float32, x tens, w, b, rows, k, n int) {
	m.matMul(y, x, w, rows, k, n)
	tensor.AddBiasRows(y, m.vec(b, n), rows, n)
}

// rowLinear is linear for a row-parallel layer (attention output projection,
// FC2): on a Megatron shard W holds this rank's rows and x the matching
// columns, so the partial products are summed over the MP group — the "g"
// all-reduce — before the replicated bias is added once.
func (m *Model) rowLinear(y []float32, x tens, w, b, rows, k, n int) {
	m.matMul(y, x, w, rows, k, n)
	m.allReduce(y)
	tensor.AddBiasRows(y, m.vec(b, n), rows, n)
}

// linearBackward is linear's backward: dx = dy·Wᵀ (overwritten), and the
// weight and bias gradients accumulated into Grads.
func (m *Model) linearBackward(dx []float32, dy, x tens, w, b, rows, k, n int) {
	m.matMulBT(dx, dy, w, rows, n, k)
	m.matMulATAdd(w, x, dy, rows, k, n)
	tensor.BiasGradRows(m.Grads[b:b+n], dy.f, rows, n)
}

// lnParams returns the fp32 images of the layernorm gain and shift at
// parameter offset off (adjacent in the layout, gain first).
func (m *Model) lnParams(off int) (gamma, beta []float32) {
	h := m.Cfg.Hidden
	p := m.vec(off, 2*h)
	return p[:h], p[h:]
}

// blockForward computes one transformer block given acts.x (the block
// input, [M,h]), fills the remaining activation slots and writes the block
// output into out (a workspace buffer owned by the caller; in fp16 mode it
// is acts.x itself, which the block is done reading by then). Every buffer
// comes from the persistent workspace and is fully overwritten — the forward
// kernels (matmul, layernorm, softmax, GELU) write their destinations, so
// stale values from the previous step never leak into the math. In fp16
// mode each value crossing a kernel boundary rounds through binary16 first
// (save, round). Widths are this rank's (Layout): on a Megatron shard the
// attention runs its own heads and the MLP its own FFN slice, and the two
// row-parallel layers all-reduce their outputs.
func (m *Model) blockForward(i int, acts *blockActs, out []float32, batch, seqLen int) {
	h := m.Cfg.Hidden
	heads, dh, ffn := m.Layout.heads, m.Layout.dh, m.Layout.ffn
	k := heads * dh // attention width: h, or the owned heads' columns
	mRows := batch * seqLen
	n := mRows * h
	off := m.Layout.blocks[i]
	ws := &m.ws
	x := acts.x

	// LN1.
	a, xhat1 := m.buf(acts, aA, n), m.buf(acts, aXhat1, n)
	acts.invStd1 = grow(acts.invStd1, mRows)
	gamma, beta := m.lnParams(off.ln1Gamma)
	tensor.LayerNorm(a, xhat1, acts.invStd1, x, gamma, beta, mRows, h, lnEps)
	m.save(acts, aXhat1)

	// QKV projection.
	qkv := m.buf(acts, aQKV, 3*mRows*k)
	m.linear(qkv, m.save(acts, aA), off.wQKV, off.bQKV, mRows, h, 3*k)
	m.save(acts, aQKV)

	// Multi-head causal self-attention. In fp16 mode the kernel rounds each
	// head's softmax into its store before the context matmul.
	probs, ctx := m.buf(acts, aProbs, batch*heads*seqLen*seqLen), m.buf(acts, aCtx, mRows*k)
	ws.attn = grow(ws.attn, tensor.AttentionScratchLen(seqLen, dh))
	ws.overflow = tensor.CausalAttention(ctx, probs, qkv, m.half(acts, aProbs, len(probs)),
		batch, seqLen, heads, dh, ws.attn) || ws.overflow

	// Output projection + residual.
	attnOut := m.buf(acts, aAttnOut, n)
	m.rowLinear(attnOut, m.save(acts, aCtx), off.wProj, off.bProj, mRows, k, h)
	x2 := m.buf(acts, aX2, n)
	copy(x2, x)
	tensor.Add(x2, attnOut)
	m.round(x2)

	// LN2 + MLP + residual. h1 is saved before GELU reads it.
	mlin, xhat2 := m.buf(acts, aMlin, n), m.buf(acts, aXhat2, n)
	acts.invStd2 = grow(acts.invStd2, mRows)
	gamma, beta = m.lnParams(off.ln2Gamma)
	tensor.LayerNorm(mlin, xhat2, acts.invStd2, x2, gamma, beta, mRows, h, lnEps)
	m.save(acts, aXhat2)
	h1 := m.buf(acts, aH1, mRows*ffn)
	m.linear(h1, m.save(acts, aMlin), off.wFC1, off.bFC1, mRows, h, ffn)
	m.save(acts, aH1)
	g := m.buf(acts, aG, mRows*ffn)
	tensor.GELU(g, h1)
	m.rowLinear(out, m.save(acts, aG), off.wFC2, off.bFC2, mRows, ffn, h)
	tensor.Add(out, x2)
	m.round(out)
}

// blockBackward consumes dOut (gradient of the block output) and the
// activations from blockForward, accumulates parameter gradients, and
// writes the gradient with respect to the block input into dst (which must
// not alias dOut; the caller double-buffers). Workspace scratch reused
// across steps is either fully overwritten by the overwrite-kernels
// (MatMul/MatMulBT, copies) or explicitly zeroed before an accumulating
// kernel (GELUBackward, MatMulATAdd, SoftmaxRowsBackward) — matching the
// zero state fresh allocations used to provide. In fp16 mode each d-tensor
// is rounded (operand) before the matmuls, bias gradient and copies that
// read it. On a Megatron shard the input gradients of the two
// column-parallel layers are partial sums over this rank's columns and are
// all-reduced before the layernorms read them (the "f" operator).
func (m *Model) blockBackward(i int, acts *blockActs, dOut, dst []float32, batch, seqLen int) {
	h := m.Cfg.Hidden
	heads, dh, ffn := m.Layout.heads, m.Layout.dh, m.Layout.ffn
	k := heads * dh
	mRows := batch * seqLen
	n := mRows * h
	off := m.Layout.blocks[i]
	g := m.Grads
	ws := &m.ws

	// Residual: out = x2 + MLP(LN2(x2)) ⇒ dx2 starts as dOut.
	hdOut := m.operand(dOut)
	dX2 := m.scratch(aX2, n)
	copy(dX2, dOut)

	// MLP backward.
	dG := m.scratch(aG, mRows*ffn)
	m.linearBackward(dG, hdOut, acts.t[aG], off.wFC2, off.bFC2, mRows, ffn, h)
	dH1 := m.scratch(sDH1, mRows*ffn)
	tensor.Zero(dH1) // GELUBackward accumulates
	tensor.GELUBackward(dH1, dG, m.load(acts, aH1))
	dMlin := m.scratch(aMlin, n)
	m.linearBackward(dMlin, m.operand(dH1), acts.t[aMlin], off.wFC1, off.bFC1, mRows, h, ffn)
	m.allReduce(dMlin)
	tensor.LayerNormBackward(dX2, g[off.ln2Gamma:off.ln2Gamma+h], g[off.ln2Beta:off.ln2Beta+h],
		dMlin, m.load(acts, aXhat2), acts.invStd2, m.vec(off.ln2Gamma, h), mRows, h)

	// Attention output projection backward (dAttnOut == dX2: x2 = x + attnOut).
	dCtx := m.scratch(aCtx, mRows*k)
	m.linearBackward(dCtx, m.operand(dX2), acts.t[aCtx], off.wProj, off.bProj, mRows, k, h)

	// Attention core backward.
	dQKV := m.scratch(sDQKV, 3*mRows*k)
	ws.attn = grow(ws.attn, tensor.AttentionScratchLen(seqLen, dh))
	tensor.CausalAttentionBackward(dQKV, dCtx, m.load(acts, aQKV), m.load(acts, aProbs),
		batch, seqLen, heads, dh, ws.attn)

	// QKV projection backward.
	dA := m.scratch(aA, n)
	m.linearBackward(dA, m.operand(dQKV), acts.t[aA], off.wQKV, off.bQKV, mRows, h, 3*k)
	m.allReduce(dA)

	// LN1 + residual: dx = dx2 (residual) + LN1-backward(dA).
	copy(dst, dX2)
	tensor.LayerNormBackward(dst, g[off.ln1Gamma:off.ln1Gamma+h], g[off.ln1Beta:off.ln1Beta+h],
		dA, m.load(acts, aXhat1), acts.invStd1, m.vec(off.ln1Gamma, h), mRows, h)
	m.round(dst)
}
