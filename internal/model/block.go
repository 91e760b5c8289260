package model

import "repro/internal/tensor"

// linear computes y[rows×n] = x[rows×k]·W + b for the weight matrix and
// bias at parameter offsets w and b of layer group g. On a Megatron shard
// this is a column-parallel layer (QKV, FC1): W and b hold this rank's
// output columns.
func (m *Model) linear(g int, y []float32, x tens, w, b, rows, k, n int) {
	m.matMul(y, x, g, w, rows, k, n)
	tensor.AddBiasRows(y, m.vec(g, b, n), rows, n)
}

// rowLinear is linear for a row-parallel layer (attention output projection,
// FC2): on a Megatron shard W holds this rank's rows and x the matching
// columns, so the partial products are summed over the MP group — the "g"
// all-reduce — before the replicated bias is added once.
func (m *Model) rowLinear(g int, y []float32, x tens, w, b, rows, k, n int) {
	m.matMul(y, x, g, w, rows, k, n)
	m.allReduce(y)
	tensor.AddBiasRows(y, m.vec(g, b, n), rows, n)
}

// linearBackward is linear's backward: dx = dy·Wᵀ (overwritten) from
// layer group g's weights, and the weight and bias gradients accumulated
// into gradient unit u's window.
func (m *Model) linearBackward(g, u int, dx []float32, dy, x tens, w, b, rows, k, n int) {
	m.matMulBT(dx, dy, g, w, rows, n, k)
	m.matMulATAdd(m.grad(u, w, k*n), x, dy, rows, k, n)
	tensor.BiasGradRows(m.grad(u, b, n), dy.f, rows, n)
}

// lnParams returns the fp32 images of the layernorm gain and shift at
// parameter offset off of layer group g (adjacent in the layout, gain
// first).
func (m *Model) lnParams(g, off int) (gamma, beta []float32) {
	h := m.Cfg.Hidden
	p := m.vec(g, off, 2*h)
	return p[:h], p[h:]
}

// blockForward computes one transformer block given its input x ([M,h]),
// fills the block's activation slots and writes the block output into out
// (a workspace buffer owned by the caller; it may be x itself, which the
// block is done reading by then). Every buffer comes from the persistent
// workspace and is fully overwritten — the forward kernels (matmul,
// layernorm, softmax, GELU) write their destinations, so stale values
// from the previous step never leak into the math. In fp16
// mode each value crossing a kernel boundary rounds through binary16 first
// (save, round). Widths are this rank's (Layout): on a Megatron shard the
// attention runs its own heads and the MLP its own FFN slice, and the two
// row-parallel layers all-reduce their outputs.
func (m *Model) blockForward(i int, acts *blockActs, x, out []float32, batch, seqLen int) {
	h := m.Cfg.Hidden
	heads, dh, ffn := m.Layout.heads, m.Layout.dh, m.Layout.ffn
	k := heads * dh // attention width: h, or the owned heads' columns
	mRows := batch * seqLen
	n := mRows * h
	off := m.Layout.blocks[i]
	g := i + 1 // the block's layer group
	ws := &m.ws

	// LN1.
	a, xhat1 := m.buf(acts, aA, n), m.buf(acts, aXhat1, n)
	acts.invStd1 = grow(acts.invStd1, mRows)
	gamma, beta := m.lnParams(g, off.ln1Gamma)
	tensor.LayerNorm(a, xhat1, acts.invStd1, x, gamma, beta, mRows, h, lnEps)
	m.save(acts, aXhat1)

	// QKV projection.
	qkv := m.buf(acts, aQKV, 3*mRows*k)
	m.linear(g, qkv, m.save(acts, aA), off.wQKV, off.bQKV, mRows, h, 3*k)
	m.save(acts, aQKV)

	// Multi-head causal self-attention. In fp16 mode the kernel rounds each
	// head's softmax into its store before the context matmul.
	probs, ctx := m.buf(acts, aProbs, batch*heads*seqLen*seqLen), m.buf(acts, aCtx, mRows*k)
	ws.attn = grow(ws.attn, tensor.AttentionScratchLen(seqLen, dh))
	ws.overflow = tensor.CausalAttention(ctx, probs, qkv, m.half(acts, aProbs, len(probs)),
		batch, seqLen, heads, dh, ws.attn) || ws.overflow

	// Output projection + residual.
	attnOut := m.buf(acts, aAttnOut, n)
	m.rowLinear(g, attnOut, m.save(acts, aCtx), off.wProj, off.bProj, mRows, k, h)
	x2 := m.buf(acts, aX2, n)
	copy(x2, x)
	tensor.Add(x2, attnOut)
	m.round(x2)

	// LN2 + MLP + residual. h1 rounds before GELU reads it, and GELU
	// saves its derivative for backward in slot aH1 (geluPrime).
	mlin, xhat2 := m.buf(acts, aMlin, n), m.buf(acts, aXhat2, n)
	acts.invStd2 = grow(acts.invStd2, mRows)
	gamma, beta = m.lnParams(g, off.ln2Gamma)
	tensor.LayerNorm(mlin, xhat2, acts.invStd2, x2, gamma, beta, mRows, h, lnEps)
	m.save(acts, aXhat2)
	h1 := m.buf(acts, aH1, mRows*ffn)
	m.linear(g, h1, m.save(acts, aMlin), off.wFC1, off.bFC1, mRows, h, ffn)
	m.round(h1)
	gelu := m.buf(acts, aG, mRows*ffn)
	tensor.GELU(gelu, m.geluPrime(acts, mRows*ffn), h1)
	m.rowLinear(g, out, m.save(acts, aG), off.wFC2, off.bFC2, mRows, ffn, h)
	tensor.Add(out, x2)
	m.round(out)
}

// blockBackward consumes dOut (gradient of the block output) and the
// activations from blockForward, accumulates parameter gradients, and
// writes the gradient with respect to the block input into dst (which must
// not alias dOut; the caller double-buffers). Workspace scratch reused
// across steps is either fully overwritten by the overwrite-kernels
// (MatMul/MatMulBT, GELUBackward, copies) or explicitly zeroed before an
// accumulating kernel (MatMulATAdd, SoftmaxRowsBackward) — matching the
// zero state fresh allocations used to provide. In fp16 mode each d-tensor
// is rounded (operand) before the matmuls, bias gradient and copies that
// read it. On a Megatron shard the input gradients of the two
// column-parallel layers are partial sums over this rank's columns and are
// all-reduced before the layernorms read them (the "f" operator). The
// block's gradient units close in the order mlp.out, mlp.in, attn, each
// bracketed by the unit hooks.
func (m *Model) blockBackward(i int, acts *blockActs, dOut, dst []float32, batch, seqLen int) {
	h := m.Cfg.Hidden
	heads, dh, ffn := m.Layout.heads, m.Layout.dh, m.Layout.ffn
	k := heads * dh
	mRows := batch * seqLen
	n := mRows * h
	off := m.Layout.blocks[i]
	g := i + 1      // the block's layer group
	attn := 3*i + 1 // its first gradient unit; mlp.in and mlp.out follow
	ws := &m.ws

	// Residual: out = x2 + MLP(LN2(x2)) ⇒ dx2 starts as dOut.
	hdOut := m.operand(dOut)
	dX2 := m.scratch(aX2, n)
	copy(dX2, dOut)

	// MLP backward. GELU's backward runs in place: dG becomes dH1 = dG ⊙ g′.
	dG := m.scratch(aG, mRows*ffn)
	call(m.UnitPreHook, attn+2)
	m.linearBackward(g, attn+2, dG, hdOut, acts.t[aG], off.wFC2, off.bFC2, mRows, ffn, h)
	call(m.UnitHook, attn+2)
	tensor.GELUBackward(dG, dG, acts.t[aH1].f)
	dMlin := m.scratch(aMlin, n)
	call(m.UnitPreHook, attn+1)
	m.linearBackward(g, attn+1, dMlin, m.operand(dG), acts.t[aMlin], off.wFC1, off.bFC1, mRows, h, ffn)
	m.allReduce(dMlin)
	tensor.LayerNormBackward(dX2, m.grad(attn+1, off.ln2Gamma, h), m.grad(attn+1, off.ln2Beta, h),
		dMlin, m.load(acts, aXhat2), acts.invStd2, m.vec(g, off.ln2Gamma, h), mRows, h)
	call(m.UnitHook, attn+1)

	// Attention output projection backward (dAttnOut == dX2: x2 = x + attnOut).
	dCtx := m.scratch(aCtx, mRows*k)
	call(m.UnitPreHook, attn)
	m.linearBackward(g, attn, dCtx, m.operand(dX2), acts.t[aCtx], off.wProj, off.bProj, mRows, k, h)

	// Attention core backward.
	dQKV := m.scratch(sDQKV, 3*mRows*k)
	ws.attn = grow(ws.attn, tensor.AttentionScratchLen(seqLen, dh))
	tensor.CausalAttentionBackward(dQKV, dCtx, m.load(acts, aQKV), m.load(acts, aProbs),
		batch, seqLen, heads, dh, ws.attn)

	// QKV projection backward.
	dA := m.scratch(aA, n)
	m.linearBackward(g, attn, dA, m.operand(dQKV), acts.t[aA], off.wQKV, off.bQKV, mRows, h, 3*k)
	m.allReduce(dA)

	// LN1 + residual: dx = dx2 (residual) + LN1-backward(dA).
	copy(dst, dX2)
	tensor.LayerNormBackward(dst, m.grad(attn, off.ln1Gamma, h), m.grad(attn, off.ln1Beta, h),
		dA, m.load(acts, aXhat1), acts.invStd1, m.vec(g, off.ln1Gamma, h), mRows, h)
	call(m.UnitHook, attn)
	m.round(dst)
}
