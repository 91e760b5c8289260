package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Model is a GPT-2-like transformer with parameters and gradients stored in
// flat buffers so data-parallel engines (DDP, ZeRO stages 1-3) can
// partition, bucket and gather them by offset.
type Model struct {
	Cfg    Config
	Layout Layout

	// Params is a standalone model's flat fp32 parameter buffer (the "fp32
	// master" copy of mixed-precision training): the one window every layer
	// group's parameters are read from in fp32 mode. Nil on a NewWindowed
	// model, whose caller binds each group's window itself (BindParams).
	Params []float32
	// Grads is a standalone model's flat gradient buffer, same layout as
	// Params: the one window every gradient unit accumulates into. Nil on a
	// NewWindowed model, whose caller binds each unit's window itself
	// (BindGrad).
	Grads []float32

	// Checkpoint enables activation checkpointing: the forward pass keeps
	// each block's input and the backward pass recomputes block internals
	// from it (§3.2's "activation recomputation", the base ZeRO-R builds Pa
	// on). In fp16 mode the input is already rounded at the block boundary,
	// so its 2-byte store is exact and checkpointing changes no bit.
	Checkpoint bool

	// Store, when non-nil and Checkpoint is on, receives each block's
	// checkpoint instead of it being held inline (in fp16 mode, the rounded
	// fp32 image). ZeRO-R's Pa plugs in here: a store that partitions the
	// checkpoint across the MP group and all-gathers it back on Get (§6.1),
	// or offloads it to host memory (Pa+cpu).
	Store CheckpointStore

	// ForwardHook, when non-nil, is invoked during Loss immediately before
	// each parameter group's compute begins: layer -1 before the embedding
	// lookup, layer i before block i's forward, layer Layers before the
	// final layernorm + tied head. Stage-3 engines use it as the "params
	// must be resident now" synchronization point of §7.2.2's pipelined
	// schedule: wait for this group's prefetched all-gather, launch the
	// next group's. It is not called for the recomputation forwards that
	// checkpointing runs inside Backward (those are covered by
	// BackwardPreHook).
	ForwardHook func(layer int)

	// BackwardPreHook, when non-nil, is invoked during Backward immediately
	// before each parameter group's weights are read and its gradients
	// written: layer Layers before the head/final-layernorm backward (which
	// also reads the tied token embedding and writes its gradient), layer i
	// before block i's recomputation and backward. The symmetric
	// synchronization point to ForwardHook for the second parameter gather
	// of stage 3.
	BackwardPreHook func(layer int)

	// UnitPreHook and UnitHook, when non-nil, bracket each gradient unit's
	// writes during Backward (u indexes Layout.Units): UnitPreHook(u) runs
	// immediately before the unit's first gradient write — where a
	// NewWindowed model's caller binds its window — and UnitHook(u) once its
	// gradients are final. The embeddings open first (the tied head) and
	// close last (the lookup); ln_f closes before the blocks, and each
	// block's units close mlp.out, mlp.in, attn, from block L-1 down.
	// Data-parallel engines reduce each unit as it closes, while the rest
	// of Backward computes — the ZeRO bucketed communication/computation
	// overlap.
	UnitPreHook, UnitHook func(u int)

	// ParamsH holds a standalone model's binary16 parameters, which the
	// fp16 mode's kernels read in place of Params. Non-nil only while fp16
	// compute is on: the model keeps Params as the fp32 master and
	// re-encodes it into ParamsH (see fp16.go). Nil on a NewWindowed model.
	ParamsH tensor.HalfBuffer

	// LossScale multiplies dLogits in fp16 mode (dynamic loss scaling; the
	// trainer folds the inverse into its gradient averaging). Zero means 1.
	// Ignored in fp32 mode.
	LossScale float32

	// fp16 selects the half-precision storage layout (SetFP16Compute).
	fp16 bool

	// mp is the model-parallel group of a Megatron shard (NewSharded); nil
	// on an unsharded model.
	mp Reducer

	// params[g] is where layer group g's parameters are read from (groups
	// as Layout.LayerSegments: 0 the embeddings, 1..Layers the blocks,
	// Layers+1 the final layernorm), and grads[u] where gradient unit u's
	// gradients go (Layout.Units); see param and grad.
	params []paramWindow
	grads  []gradWindow

	// ws is the persistent step workspace (activations, gradients,
	// attention scratch), reused across steps; fwd points at it between a
	// Loss and its Backward. See workspace.go for the ownership rules.
	ws  workspace
	fwd *workspace
}

// blockActs holds one block's saved-for-backward state, drawn from the
// model workspace and reused across steps: the activation slots of fp16.go
// (fp32 buffers in fp32 mode, 2-byte stores in fp16 mode) plus the inverse
// standard deviations, which stay fp32 in both — they are O(M) and
// precision-critical. Slot aX is the block input: in fp32 mode the buffer
// the previous block (or the embedding) writes its output into; in fp16
// mode the staging is the one residual-stream buffer, and the 2-byte store
// is filled only when checkpointing keeps the input inline.
type blockActs struct {
	t                [numActs]tens
	invStd1, invStd2 []float32
}

// gradWindow is a buffer that holds the gradients of the parameters from
// offset lo on.
type gradWindow struct {
	buf []float32
	lo  int
}

// paramWindow holds the parameters from offset lo on at the width the
// kernels read: f in fp32 mode, h in fp16 mode, the other nil. Both nil is
// an unbound window.
type paramWindow struct {
	f  []float32
	h  tensor.HalfBuffer
	lo int
}

// New creates a model with its parameters initialized by InitParams and a
// Ψ-long Grads that Backward accumulates into.
func New(cfg Config, seed int64) *Model {
	m := NewWindowed(cfg)
	m.Params = make([]float32, m.Layout.Total)
	InitParams(cfg, seed, 0, m.Params)
	m.ownParams()
	m.ownGrads()
	return m
}

// ownParams points every layer group of a standalone model at its one
// parameter buffer: Params in fp32 mode, ParamsH in fp16 mode.
func (m *Model) ownParams() {
	for g := range m.params {
		m.params[g] = paramWindow{f: m.Params}
		if m.fp16 {
			m.params[g] = paramWindow{h: m.ParamsH}
		}
	}
}

// ownGrads gives a standalone model its Grads: one window, covering the
// whole layout, that every gradient unit goes to.
func (m *Model) ownGrads() {
	m.Grads = make([]float32, m.Layout.Total)
	for g := range m.grads {
		m.grads[g] = gradWindow{buf: m.Grads}
	}
}

// NewWindowed is a model with neither Params nor Grads, for a caller that
// keeps both in windows of its own: before Loss or Backward reads a layer
// group's parameters (ForwardHook, BackwardPreHook) the caller binds that
// group's parameter window with BindParams, and before Backward writes a
// gradient unit (UnitPreHook), its gradient window with BindGrad.
// InitParams gives the caller the initial values of whatever range it
// holds.
func NewWindowed(cfg Config) *Model {
	return newModel(cfg, BuildLayout(cfg))
}

// newModel is a model over layout with every window unbound.
func newModel(cfg Config, layout Layout) *Model {
	return &Model{
		Cfg:    cfg,
		Layout: layout,
		params: make([]paramWindow, cfg.Layers+2),
		grads:  make([]gradWindow, len(layout.Units)),
	}
}

// InitParams writes the initial parameters [lo, lo+len(dst)) of the model
// New(cfg, seed) builds into dst, bit for bit: Gaussian weights (std 0.02,
// GPT-2 style; residual projections scaled by 1/√(2L)), unit layernorm
// gains, zero biases and shifts. The weights are one RNG stream in layout
// order, so the draws before lo are made and discarded, and none after
// lo+len(dst): a range costs its end offset in draws and nothing in memory.
func InitParams(cfg Config, seed int64, lo int, dst []float32) {
	hi := lo + len(dst)
	r := rand.New(rand.NewSource(seed))
	const std = 0.02
	residStd := std / float32(math.Sqrt(2*float64(cfg.Layers)))
	for _, seg := range BuildLayout(cfg).Segments {
		if seg.Lo >= hi {
			return
		}
		a, b := max(seg.Lo, lo), min(seg.Hi, hi)
		var scale float32
		switch {
		case hasSuffix(seg.Name, ".gamma"):
			if a < b {
				tensor.Fill(dst[a-lo:b-lo], 1)
			}
			continue
		case hasSuffix(seg.Name, ".wproj") || hasSuffix(seg.Name, ".w2"):
			scale = residStd
		case hasSuffix(seg.Name, ".wqkv") || hasSuffix(seg.Name, ".w1") ||
			seg.Name == "tok_emb" || seg.Name == "pos_emb":
			scale = std
		default:
			if a < b {
				tensor.Zero(dst[a-lo : b-lo])
			}
			continue
		}
		for i := seg.Lo; i < min(a, seg.Hi); i++ {
			r.NormFloat64()
		}
		for i := a; i < b; i++ {
			dst[i-lo] = float32(r.NormFloat64()) * scale
		}
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// NumParams returns the flat parameter count (this rank's, on a shard).
func (m *Model) NumParams() int { return m.Layout.Total }

// ZeroGrads clears the gradient buffer.
func (m *Model) ZeroGrads() { tensor.Zero(m.Grads) }

// BindParams makes layer group g's parameters, indexed as LayerSegments,
// read from the window f in fp32 mode or h in fp16 mode (the other nil);
// the window must be exactly the group's length. Nil for both unbinds the
// group: a later read panics, naming it.
func (m *Model) BindParams(g int, f []float32, h tensor.HalfBuffer) {
	lo, hi := m.Layout.group(g)
	n := len(f)
	if m.fp16 {
		n = len(h)
	}
	if (f != nil || h != nil) && ((f == nil) != m.fp16 || (h == nil) == m.fp16 || n != hi-lo) {
		panic(fmt.Sprintf("model: parameter window of %d fp32 and %d fp16 elements for layer group %s (fp16 mode %v), want %d at the mode's width",
			len(f), len(h), m.Layout.groupName(g), m.fp16, hi-lo))
	}
	m.params[g] = paramWindow{f: f, h: h, lo: lo}
}

// param returns layer group g's parameter window; every parameter read of
// Loss and Backward goes through it. An unbound group panics.
func (m *Model) param(g int) *paramWindow {
	w := &m.params[g]
	if w.f == nil && w.h == nil {
		panic(fmt.Sprintf("model: parameters of layer group %s read with no window bound", m.Layout.groupName(g)))
	}
	return w
}

// BindGrad makes buf, which must be exactly gradient unit u's length
// (Layout.Units), the window Backward accumulates that unit's gradients
// into. Backward adds into it, so the caller zeroes it first. A nil buf
// unbinds the unit: a later write panics, naming it.
func (m *Model) BindGrad(u int, buf []float32) {
	unit := m.Layout.Units[u]
	if buf != nil && len(buf) != unit.Len() {
		panic(fmt.Sprintf("model: gradient window of %d elements for unit %s, want %d", len(buf), unit.Name, unit.Len()))
	}
	m.grads[u] = gradWindow{buf: buf, lo: unit.Lo}
}

// grad returns the gradient of the n parameters from offset off, which lie
// in gradient unit u: every gradient write of Backward goes through it,
// between the unit's two hooks. A write outside the unit's bound window
// (all of them, when none is bound) panics, naming the unit.
func (m *Model) grad(u, off, n int) []float32 {
	w := m.grads[u]
	if off < w.lo || off+n > w.lo+len(w.buf) {
		panic(fmt.Sprintf("model: gradients [%d, %d) written outside the window bound for unit %s", off, off+n, m.Layout.Units[u].Name))
	}
	return w.buf[off-w.lo : off-w.lo+n]
}

// call runs hook(i) if the hook is set.
func call(hook func(int), i int) {
	if hook != nil {
		hook(i)
	}
}

// Loss runs the forward pass on ids/targets (length batch×seqLen each,
// row-major) and returns the mean cross-entropy. State is retained for a
// following Backward call.
func (m *Model) Loss(ids, targets []int, batch int) float64 {
	if len(ids) == 0 || len(ids)%batch != 0 || len(ids) != len(targets) {
		panic("model: ids/targets must be batch x seqLen")
	}
	seqLen := len(ids) / batch
	if seqLen > m.Cfg.Seq {
		panic("model: sequence longer than configured maximum")
	}
	h, v := m.Cfg.Hidden, m.Cfg.Vocab
	mRows := batch * seqLen
	n := mRows * h
	fs := &m.ws
	fs.batch, fs.seqLen = batch, seqLen
	fs.ids = append(fs.ids[:0], ids...)
	fs.targets = append(fs.targets[:0], targets...)
	if len(fs.blocks) != m.Cfg.Layers {
		fs.blocks = make([]blockActs, m.Cfg.Layers)
	}

	// Embedding: token + position, into block 0's input slot.
	call(m.ForwardHook, -1)
	x := m.buf(fs.in(0), aX, n)
	for b := 0; b < batch; b++ {
		for t := 0; t < seqLen; t++ {
			id := ids[b*seqLen+t]
			if id < 0 || id >= v {
				panic("model: token id out of range")
			}
			row := x[(b*seqLen+t)*h : (b*seqLen+t+1)*h]
			copy(row, m.vec(0, m.Layout.tokEmb+id*h, h))
			tensor.Add(row, m.vec(0, m.Layout.posEmb+t*h, h))
		}
	}
	m.round(x)

	// Blocks. Each writes its output into the next one's input slot: a
	// buffer of its own per block in fp32 mode, the one residual-stream
	// staging buffer in fp16 mode. The checkpoint is taken before the
	// block runs, because in fp16 mode the output overwrites the input.
	for i := 0; i < m.Cfg.Layers; i++ {
		call(m.ForwardHook, i)
		acts := &fs.blocks[i]
		if m.Checkpoint {
			if m.Store != nil {
				m.Store.Put(i, x)
			} else {
				m.save(acts, aX)
			}
		}
		out := m.buf(fs.in(i+1), aX, n)
		m.blockForward(i, acts, x, out, batch, seqLen)
		x = out
	}

	// Final layernorm + tied-embedding head. The layernorm saves what a
	// block's ln1 does, in the same slots of fs.head.
	call(m.ForwardHook, m.Cfg.Layers)
	xf, xhatF := m.buf(&fs.head, aA, n), m.buf(&fs.head, aXhat1, n)
	fs.head.invStd1 = grow(fs.head.invStd1, mRows)
	fin := m.Cfg.Layers + 1 // the final layernorm's group
	gammaF, betaF := m.lnParams(fin, m.Layout.lnF)
	tensor.LayerNorm(xf, xhatF, fs.head.invStd1, x, gammaF, betaF, mRows, h, lnEps)
	m.save(&fs.head, aXhat1)
	fs.logits = grow(fs.logits, mRows*v)
	m.matMulBT(fs.logits, m.save(&fs.head, aA), 0, m.Layout.tokEmb, mRows, h, v)
	loss := tensor.CrossEntropy(m.headProbs(), fs.logits, fs.targets, mRows, v)

	m.fwd = fs
	return loss
}

// headProbs returns the softmax-over-vocab buffer of the last Loss: its own
// in fp32 mode; in fp16 mode the softmax overwrites the logits (the row softmax
// allows aliasing), and dLogits the probabilities in turn, so one fp32
// [M,v] buffer carries the head state into backward.
func (m *Model) headProbs() []float32 {
	return m.pick(&m.ws.probs, &m.ws.logits, len(m.ws.logits))
}

// Backward accumulates gradients of the last Loss call into Grads, or into
// the windows bound on a NewWindowed model. Call after Loss; panics
// otherwise.
func (m *Model) Backward() {
	fs := m.fwd
	if fs == nil {
		panic("model: Backward without a preceding Loss")
	}
	m.fwd = nil
	h, v := m.Cfg.Hidden, m.Cfg.Vocab
	mRows := fs.batch * fs.seqLen
	n := mRows * h
	fin := m.Cfg.Layers + 1 // the final layernorm's group
	lastU := len(m.Layout.Units) - 1

	// The head reads the tied token embedding and the final layernorm's
	// parameters next, and writes their gradients.
	call(m.BackwardPreHook, m.Cfg.Layers)
	tokEmb, lnF := m.Layout.tokEmb, m.Layout.lnF
	call(m.UnitPreHook, 0)
	dTok := m.grad(0, tokEmb, v*h)
	dPos := m.grad(0, m.Layout.posEmb, m.Cfg.Seq*h)

	// Head: dLogits (loss-scaled in fp16 mode), then through the tied
	// embedding.
	dLogits := m.pick(&fs.dLogits, &fs.logits, mRows*v)
	tensor.CrossEntropyBackward(dLogits, m.headProbs(), fs.targets, mRows, v)
	if m.fp16 && m.LossScale != 1 {
		tensor.Scale(dLogits, m.LossScale)
	}
	hdLogits := m.operand(dLogits)
	dXf := m.pick(&fs.dXf, &fs.shared[aA], n)
	m.matMul(dXf, hdLogits, 0, tokEmb, mRows, v, h)
	m.matMulATAdd(dTok, hdLogits, fs.head.t[aA], mRows, v, h)

	// Final layernorm. LayerNormBackward accumulates into dX, so the reused
	// buffer is zeroed first (fresh allocations used to guarantee this).
	// The input gradient is double-buffered (block i reads dX while writing
	// next). fp16 mode takes the pair from buffers forward is done with,
	// unless checkpointing recomputes the blocks: the recompute writes
	// every forward staging slot again.
	pa, pb := &fs.dXa, &fs.dXb
	if m.fp16 && !m.Checkpoint {
		pa, pb = &fs.shared[aX], &fs.shared[aAttnOut]
	}
	*pa, *pb = grow(*pa, n), grow(*pb, n)
	dX, next := *pa, *pb
	tensor.Zero(dX)
	call(m.UnitPreHook, lastU)
	tensor.LayerNormBackward(dX, m.grad(lastU, lnF, h), m.grad(lastU, lnF+h, h), dXf,
		m.load(&fs.head, aXhat1), fs.head.invStd1, m.vec(fin, lnF, h), mRows, h)
	call(m.UnitHook, lastU)
	m.round(dX)

	// Blocks in reverse. Under checkpointing, recompute each block's
	// internals from its saved input first; in fp16 mode the input decodes
	// into the residual-stream staging, which the recompute's output
	// overwrites as in forward.
	for i := m.Cfg.Layers - 1; i >= 0; i-- {
		call(m.BackwardPreHook, i)
		acts := &fs.blocks[i]
		if m.Checkpoint {
			var x []float32
			if m.Store != nil {
				x = m.Store.Get(i)
			} else {
				x = m.load(acts, aX)
			}
			m.blockForward(i, acts, x, m.buf(fs.in(i+1), aX, n), fs.batch, fs.seqLen)
		}
		m.blockBackward(i, acts, dX, next, fs.batch, fs.seqLen)
		dX, next = next, dX
	}

	// Embedding gradients.
	for b := 0; b < fs.batch; b++ {
		for t := 0; t < fs.seqLen; t++ {
			id := fs.ids[b*fs.seqLen+t]
			row := dX[(b*fs.seqLen+t)*h : (b*fs.seqLen+t+1)*h]
			tensor.Add(dTok[id*h:(id+1)*h], row)
			tensor.Add(dPos[t*h:(t+1)*h], row)
		}
	}
	call(m.UnitHook, 0)
}

const lnEps = 1e-5

// CheckpointStore abstracts where activation checkpoints live between the
// forward and backward passes. Put is called once per block during forward;
// Get must return the identical values during backward (blocks are fetched
// in reverse order).
type CheckpointStore interface {
	Put(layer int, x []float32)
	Get(layer int) []float32
}
