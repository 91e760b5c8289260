package model

import "repro/internal/tensor"

// The model's step workspace: every activation, gradient and attention
// scratch buffer the forward/backward pass needs, retained across steps so
// the steady-state training loop performs no heap allocation (the same
// discipline ZeRO-R's constant buffers apply to real training runs, §6.3).
// Buffers grow to the high-water mark of the shapes seen and are reused by
// capacity; ReleaseWorkspace hands everything back to the GC at trainer
// teardown so sequential trainers never double-resident their scratch.
//
// Ownership rule: a buffer returned by grow has UNDEFINED contents. Every
// use below either fully overwrites it (matmul/layernorm/softmax forward
// kernels, explicit copies) or zeroes it first when the consuming kernel
// accumulates (see the tensor package's *Backward conventions).

// workspace holds the per-model scratch. It doubles as the saved forward
// state: Loss fills the activation fields and Backward consumes them.
type workspace struct {
	// saved forward state
	batch, seqLen int
	ids           []int
	targets       []int
	blocks        []blockActs
	head          blockActs // final layernorm: input in slot aX, output in aA, plus aXhat1 and invStd1
	logits        []float32
	probs         []float32 // fp32 mode: softmax over vocab (fp16 mode: in place over logits)

	// fp32 mode's own head and input-gradient buffers; fp16 mode reuses
	// dead ones instead (see Backward), except for the input-gradient pair
	// under checkpointing, whose recompute writes the forward staging.
	dLogits, dXf, dXa, dXb []float32

	// shared is backward's gradient scratch, indexed by the slot of the
	// activation whose gradient it holds, and in fp16 mode also the fp32
	// staging forward computes through and backward decodes into.
	shared [numShared][]float32
	hstage tensor.HalfBuffer // fp16 mode: binary16 image of the d-tensor feeding the next matmul
	attn   []float32         // per-(sample, head) attention scratch
	pvec   []float32         // fp16 mode: parameter-vector decode scratch

	overflow bool // any fp16 store overflowed since TakeOverflow
}

// in returns the activations whose aX slot holds block i's input: block
// i's own, or the head's for i == Layers (the last block's output).
func (ws *workspace) in(i int) *blockActs {
	if i == len(ws.blocks) {
		return &ws.head
	}
	return &ws.blocks[i]
}

// grow returns a slice of length n backed by buf when its capacity
// suffices, or a fresh allocation that becomes the new high-water buffer.
// Contents are undefined (see the ownership rule above).
func grow(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}

// ReleaseWorkspace drops every retained scratch buffer (and any pending
// forward state), returning the memory to the GC — the teardown hook
// zero.Trainer.Close uses so two sequential trainers in one process never
// hold two workspaces at once.
func (m *Model) ReleaseWorkspace() {
	m.ws = workspace{}
	m.fwd = nil
}

// WorkspaceBytes reports the bytes currently retained by the step
// workspace — the measurable form of the pool-hygiene contract.
func (m *Model) WorkspaceBytes() int64 {
	ws := &m.ws
	var n, nh int // fp32 and fp16 elements
	add := func(bufs ...[]float32) {
		for _, b := range bufs {
			n += cap(b)
		}
	}
	add(ws.logits, ws.probs, ws.dLogits, ws.dXf, ws.dXa, ws.dXb, ws.attn, ws.pvec)
	add(ws.shared[:]...)
	addActs := func(a *blockActs) {
		for _, t := range a.t {
			add(t.f)
			nh += cap(t.h)
		}
		add(a.invStd1, a.invStd2)
	}
	addActs(&ws.head)
	for i := range ws.blocks {
		addActs(&ws.blocks[i])
	}
	nh += cap(ws.hstage)
	return int64(n)*4 + int64(nh)*2 + int64(cap(ws.ids)+cap(ws.targets))*8
}
