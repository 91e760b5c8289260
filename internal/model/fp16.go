package model

import "repro/internal/tensor"

// Precision is a storage decision, not a second model (§3.1's fp16
// parameters, gradients and activations beside an fp32 master). Loss,
// Backward and the transformer block are written once, against the small
// store below; SetFP16Compute fixes which of two layouts it has.
//
//   - fp32 mode: every saved activation is its own per-layer []float32.
//     Forward computes straight into it, "save" is a no-op, "load" returns
//     the slice, weights are Params[lo:hi] and matmuls are tensor.MatMul*.
//   - fp16 mode: every tensor that persists across the step — saved
//     activations and the parameter copy the compute reads — is 2-byte
//     binary16, while all arithmetic accumulates in fp32. Forward computes
//     into fp32 staging shared by all layers (ws.shared: one layer's working
//     set, O(1) in depth); "save" rounds the staging in place through
//     binary16 into the layer's HalfBuffer, so fp32 consumers always see
//     exactly the values the store decodes to, and raises the overflow flag
//     TakeOverflow surfaces; "load" decodes back into the staging. Matmuls
//     run the fused half-domain kernels (tensor.MatMul*H: fp16 operands,
//     fp32 accumulation) on ParamsH, the rounded image of the fp32 master
//     (Params, or an engine's own shard of it after ReleaseParams);
//     layernorm gains and biases decode into scratch (vec).
//     Backward's gradient scratch reuses the staging of tensors that are
//     dead by then, each d-tensor rounds into one shared half staging buffer
//     before it feeds a matmul (operand), dLogits is scaled by LossScale
//     first, and weight gradients accumulate in fp32 Grads.
//
// Elementwise kernels (layernorm, softmax, GELU) and the per-head attention
// core always run on fp32 images; in fp16 mode those are the rounded ones.

// Activation slots of one transformer block: the index of a tensor in
// blockActs.t and of its shared buffer in workspace.shared.
const (
	aXhat1   = iota // [M,h] ln1 normalized input
	aA              // [M,h] ln1 output
	aQKV            // [M,3h]
	aProbs          // attention softmax [B*heads, T, T]
	aCtx            // [M,h] attention context before proj
	aAttnOut        // [M,h] attention projection output
	aX2             // [M,h] x + attnOut
	aXhat2          // [M,h] ln2 normalized input
	aMlin           // [M,h] ln2 output
	aH1             // [M,ffn] MLP pre-GELU
	aG              // [M,ffn] GELU output
	numActs

	// Shared-only slots: gradients whose activation is still being read
	// (GELU backward reads h1 and writes dH1, attention backward qkv and
	// dQKV), so they cannot take the activation's own slot.
	sDH1      = numActs
	sDQKV     = numActs + 1
	numShared = numActs + 2
)

// tens is a tensor as the matmul helpers take it: the fp32 image and, in
// fp16 mode, the binary16 copy the half kernels read instead.
type tens struct {
	f []float32
	h tensor.HalfBuffer
}

// growH is grow for fp16 buffers.
func growH(buf tensor.HalfBuffer, n int) tensor.HalfBuffer {
	if cap(buf) >= n {
		return buf[:n]
	}
	return tensor.NewHalfBuffer(n)
}

// SetFP16Compute switches the model between the fp32 and fp16 layouts.
// Enabling allocates the ParamsH compute copy and encodes the current
// master into it; callers that mutate Params afterwards must
// RefreshHalfParams the touched range. A switch in either direction drops
// the step workspace (the layouts share no buffer list), and switching off
// drops ParamsH too.
func (m *Model) SetFP16Compute(on bool) {
	if m.Params == nil {
		panic("model: SetFP16Compute after ReleaseParams")
	}
	if on && m.mp != nil {
		panic("model: fp16 compute has no model-parallel path")
	}
	if on != m.fp16 {
		m.ReleaseWorkspace()
	}
	m.fp16 = on
	if !on {
		m.ParamsH = nil
		return
	}
	m.ParamsH = growH(m.ParamsH, len(m.Params))
	m.RefreshHalfParams(0, len(m.Params))
	if m.LossScale == 0 {
		m.LossScale = 1
	}
}

// ReleaseParams drops the fp32 parameter buffer. Legal only in fp16 mode,
// where every parameter read goes through ParamsH (vec, matMul, matMulBT):
// an engine that keeps its own fp32 master shard and writes ParamsH itself —
// the ZeRO trainer under FP16Compute — has no use for a second, Ψ-long fp32
// copy. Switching the layout again needs Params and is no longer possible.
func (m *Model) ReleaseParams() {
	if !m.fp16 {
		panic("model: ReleaseParams outside fp16 compute mode (the fp32 kernels read Params)")
	}
	m.Params = nil
}

// FP16Compute reports whether the fp16 layout is active.
func (m *Model) FP16Compute() bool { return m.fp16 }

// RefreshHalfParams re-encodes Params[lo:hi] into the fp16 compute copy —
// the writeback point after the optimizer (or a parameter all-gather)
// changes the fp32 master.
func (m *Model) RefreshHalfParams(lo, hi int) {
	m.ParamsH[lo:hi].FromFloats(m.Params[lo:hi])
}

// TakeOverflow returns and clears the workspace overflow flag: whether any
// fp16 store since the last call overflowed to ±Inf/NaN. The trainer polls
// it per micro-batch to drive dynamic loss scaling.
func (m *Model) TakeOverflow() bool {
	o := m.ws.overflow
	m.ws.overflow = false
	return o
}

// pick returns a length-n fp32 buffer: *own in fp32 mode, where the tensor
// keeps a buffer of its own, or *shared in fp16 mode, where it lives in a
// buffer some other tensor is done with (or, for the head's softmax and
// dLogits, is computed in place over its input).
func (m *Model) pick(own, shared *[]float32, n int) []float32 {
	p := own
	if m.fp16 {
		p = shared
	}
	*p = grow(*p, n)
	return *p
}

// scratch returns shared slot k at length n: backward's gradient scratch in
// both modes, and the forward staging in fp16 mode.
func (m *Model) scratch(k, n int) []float32 {
	ws := &m.ws
	ws.shared[k] = grow(ws.shared[k], n)
	return ws.shared[k]
}

// buf returns the fp32 buffer forward computes activation k of acts into.
func (m *Model) buf(acts *blockActs, k, n int) []float32 {
	return m.pick(&acts.t[k].f, &m.ws.shared[k], n)
}

// half returns activation k's 2-byte store at length n; nil in fp32 mode.
func (m *Model) half(acts *blockActs, k, n int) tensor.HalfBuffer {
	if !m.fp16 {
		return nil
	}
	t := &acts.t[k]
	t.h = growH(t.h, n)
	return t.h
}

// save commits activation k once forward has filled its buf, and returns it
// as a matmul operand.
func (m *Model) save(acts *blockActs, k int) tens {
	if !m.fp16 {
		return acts.t[k]
	}
	f := m.ws.shared[k]
	h := m.half(acts, k, len(f))
	m.ws.overflow = h.FromFloatsRound(f) || m.ws.overflow
	return tens{f, h}
}

// load returns the fp32 image of saved activation k for backward.
func (m *Model) load(acts *blockActs, k int) []float32 {
	t := acts.t[k]
	if !m.fp16 {
		return t.f
	}
	f := m.scratch(k, len(t.h))
	t.h.ToFloats(f)
	return f
}

// operand returns the gradient tensor d as a matmul operand. fp16 mode
// rounds d in place and into the one half staging buffer every d-tensor
// shares, so the result is valid until the next operand call.
func (m *Model) operand(d []float32) tens {
	if !m.fp16 {
		return tens{f: d}
	}
	ws := &m.ws
	ws.hstage = growH(ws.hstage, len(d))
	ws.overflow = ws.hstage.FromFloatsRound(d) || ws.overflow
	return tens{d, ws.hstage}
}

// round is save for a tensor fp16 mode keeps only as an fp32 image (the
// residual stream): rounded through binary16 in place, no store.
func (m *Model) round(x []float32) {
	if m.fp16 {
		m.ws.overflow = tensor.RoundHalfCheck(x) || m.ws.overflow
	}
}

// vec returns the fp32 image of the parameter vector [off, off+n) —
// layernorm gains and shifts, biases, embedding rows — valid until the next
// vec call: Params itself, or ParamsH decoded into scratch.
func (m *Model) vec(off, n int) []float32 {
	if !m.fp16 {
		return m.Params[off : off+n]
	}
	ws := &m.ws
	ws.pvec = grow(ws.pvec, n)
	m.ParamsH[off : off+n].ToFloats(ws.pvec)
	return ws.pvec
}

// matMul computes c[rows×n] = a[rows×k] · W, W the [k×n] parameter matrix
// at offset w.
func (m *Model) matMul(c []float32, a tens, w, rows, k, n int) {
	if m.fp16 {
		tensor.MatMulH(c, a.h, m.ParamsH[w:w+k*n], rows, k, n)
		return
	}
	tensor.MatMul(c, a.f, m.Params[w:w+k*n], rows, k, n)
}

// matMulBT computes c[rows×k] = a[rows×n] · Wᵀ, W the [k×n] parameter
// matrix at offset w.
func (m *Model) matMulBT(c []float32, a tens, w, rows, n, k int) {
	if m.fp16 {
		tensor.MatMulBTH(c, a.h, m.ParamsH[w:w+k*n], rows, n, k)
		return
	}
	tensor.MatMulBT(c, a.f, m.Params[w:w+k*n], rows, n, k)
}

// matMulATAdd accumulates aᵀ[k×rows] · b[rows×n] into the fp32 gradient of
// the [k×n] parameter matrix at offset w.
func (m *Model) matMulATAdd(w int, a, b tens, rows, k, n int) {
	if m.fp16 {
		tensor.MatMulATAddH(m.Grads[w:w+k*n], a.h, b.h, rows, k, n)
		return
	}
	tensor.MatMulATAdd(m.Grads[w:w+k*n], a.f, b.f, rows, k, n)
}
