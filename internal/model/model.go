package model

import (
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

	// Params is the flat fp32 parameter buffer (the "fp32 master" copy of
	// mixed-precision training). Nil after ReleaseParams.
	Params []float32
	// Grads is the flat gradient buffer, same layout as Params.
	Grads []float32

	// Checkpoint enables activation checkpointing: the forward pass keeps
	// only each block's input and the backward pass recomputes block
	// internals (§3.2's "activation recomputation", the base ZeRO-R builds
	// Pa on).
	Checkpoint bool

	// Store, when non-nil and Checkpoint is on, receives each block's
	// checkpoint instead of it being held inline. ZeRO-R's Pa plugs in
	// here: a store that partitions the checkpoint across the MP group and
	// all-gathers it back on Get (§6.1), or offloads it to host memory
	// (Pa+cpu).
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
	// before each parameter group's weights are read: layer Layers before
	// the head/final-layernorm backward (which also reads the tied token
	// embedding), layer i before block i's recomputation and backward.
	// The symmetric synchronization point to ForwardHook for the second
	// parameter gather of stage 3.
	BackwardPreHook func(layer int)

	// BackwardHook, when non-nil, is invoked during Backward immediately
	// after block `layer`'s parameter gradients are final (blocks are
	// visited in reverse order, so layer L-1 fires first). Data-parallel
	// engines use it to launch per-layer gradient collectives while the
	// remaining blocks are still computing — the ZeRO bucketed
	// communication/computation overlap. The hook is not called for the
	// embeddings or final layernorm: the token-embedding gradient keeps
	// accumulating until Backward returns (tied head at the start plus
	// the embedding lookup at the very end), so that segment is only
	// final afterwards. (The final layernorm's own gradients are written
	// once, before the block loop, but share the post-Backward schedule
	// slot for simplicity — they are 2h elements.)
	BackwardHook func(layer int)

	// ParamsH holds the binary16 parameters the fp16 mode's kernels read.
	// Non-nil only while FP16Compute is on. A standalone model keeps Params
	// as the fp32 master and re-encodes via RefreshHalfParams; an engine
	// that holds the master elsewhere writes ParamsH itself and may
	// ReleaseParams (see fp16.go).
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
// precision-critical. x (the block input / activation checkpoint) aliases
// the previous block's output; under a checkpoint Store it is nil between
// the forward Put and the backward Get.
type blockActs struct {
	x                []float32
	t                [numActs]tens
	invStd1, invStd2 []float32
}

// New creates a model with Gaussian-initialized weights (std 0.02, GPT-2
// style; residual projections scaled by 1/√(2L)) and unit layernorm gains.
func New(cfg Config, seed int64) *Model {
	layout := BuildLayout(cfg)
	m := &Model{
		Cfg:    cfg,
		Layout: layout,
		Params: make([]float32, layout.Total),
		Grads:  make([]float32, layout.Total),
	}
	r := rand.New(rand.NewSource(seed))
	const std = 0.02
	residStd := std / float32(math.Sqrt(2*float64(cfg.Layers)))
	for _, seg := range layout.Segments {
		p := m.Params[seg.Lo:seg.Hi]
		switch {
		case hasSuffix(seg.Name, ".gamma"):
			tensor.Fill(p, 1)
		case hasSuffix(seg.Name, ".wproj") || hasSuffix(seg.Name, ".w2"):
			for i := range p {
				p[i] = float32(r.NormFloat64()) * residStd
			}
		case hasSuffix(seg.Name, ".wqkv") || hasSuffix(seg.Name, ".w1") ||
			seg.Name == "tok_emb" || seg.Name == "pos_emb":
			for i := range p {
				p[i] = float32(r.NormFloat64()) * std
			}
		}
	}
	return m
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// NumParams returns the flat parameter count (this rank's, on a shard).
func (m *Model) NumParams() int { return m.Layout.Total }

// ZeroGrads clears the gradient buffer.
func (m *Model) ZeroGrads() { tensor.Zero(m.Grads) }

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
	if m.fp16 && m.Checkpoint {
		panic("model: fp16 compute keeps no fp32 block inputs to checkpoint; turn Checkpoint off")
	}
	h, v := m.Cfg.Hidden, m.Cfg.Vocab
	mRows := batch * seqLen
	fs := &m.ws
	fs.batch, fs.seqLen = batch, seqLen
	fs.ids = append(fs.ids[:0], ids...)
	fs.targets = append(fs.targets[:0], targets...)
	fs.x0 = grow(fs.x0, mRows*h)

	// Embedding: token + position.
	if m.ForwardHook != nil {
		m.ForwardHook(-1)
	}
	for b := 0; b < batch; b++ {
		for t := 0; t < seqLen; t++ {
			id := ids[b*seqLen+t]
			if id < 0 || id >= v {
				panic("model: token id out of range")
			}
			row := fs.x0[(b*seqLen+t)*h : (b*seqLen+t+1)*h]
			copy(row, m.vec(m.Layout.tokEmb+id*h, h))
			tensor.Add(row, m.vec(m.Layout.posEmb+t*h, h))
		}
	}
	m.round(fs.x0)

	// Blocks. fp32 mode keeps every block's output (the next block's saved
	// input); fp16 mode saves no block input, so each block overwrites x0.
	if len(fs.blocks) != m.Cfg.Layers {
		fs.blocks = make([]blockActs, m.Cfg.Layers)
		fs.outs = make([][]float32, m.Cfg.Layers)
	}
	x := fs.x0
	for i := 0; i < m.Cfg.Layers; i++ {
		if m.ForwardHook != nil {
			m.ForwardHook(i)
		}
		acts := &fs.blocks[i]
		acts.x = x
		x = m.pick(&fs.outs[i], &fs.x0, mRows*h)
		m.blockForward(i, acts, x, batch, seqLen)
		if m.Checkpoint && m.Store != nil {
			m.Store.Put(i, acts.x)
			acts.x = nil
		}
	}

	// Final layernorm + tied-embedding head. The layernorm saves what a
	// block's ln1 does, in the same slots of fs.head.
	if m.ForwardHook != nil {
		m.ForwardHook(m.Cfg.Layers)
	}
	xf, xhatF := m.buf(&fs.head, aA, mRows*h), m.buf(&fs.head, aXhat1, mRows*h)
	fs.head.invStd1 = grow(fs.head.invStd1, mRows)
	gammaF, betaF := m.lnParams(m.Layout.lnF)
	tensor.LayerNorm(xf, xhatF, fs.head.invStd1, x, gammaF, betaF, mRows, h, lnEps)
	m.save(&fs.head, aXhat1)
	fs.logits = grow(fs.logits, mRows*v)
	m.matMulBT(fs.logits, m.save(&fs.head, aA), m.Layout.tokEmb, mRows, h, v)
	loss := tensor.CrossEntropy(m.headProbs(), fs.logits, fs.targets, mRows, v)

	m.fwd = fs
	return loss
}

// headProbs returns the softmax-over-vocab buffer of the last Loss: its own
// in fp32 mode; in fp16 mode the softmax overwrites the logits (SoftmaxRows
// allows aliasing), and dLogits the probabilities in turn, so one fp32
// [M,v] buffer carries the head state into backward.
func (m *Model) headProbs() []float32 {
	return m.pick(&m.ws.probs, &m.ws.logits, len(m.ws.logits))
}

// Backward accumulates gradients of the last Loss call into Grads. Call
// after Loss; panics otherwise.
func (m *Model) Backward() {
	fs := m.fwd
	if fs == nil {
		panic("model: Backward without a preceding Loss")
	}
	m.fwd = nil
	h, v := m.Cfg.Hidden, m.Cfg.Vocab
	mRows := fs.batch * fs.seqLen
	g := m.Grads

	// The head reads the tied token embedding and the final layernorm's
	// parameters next.
	if m.BackwardPreHook != nil {
		m.BackwardPreHook(m.Cfg.Layers)
	}
	tokEmb, lnF := m.Layout.tokEmb, m.Layout.lnF
	dTok := g[tokEmb : tokEmb+v*h]
	dPos := g[m.Layout.posEmb : m.Layout.posEmb+m.Cfg.Seq*h]

	// Head: dLogits (loss-scaled in fp16 mode), then through the tied
	// embedding.
	dLogits := m.pick(&fs.dLogits, &fs.logits, mRows*v)
	tensor.CrossEntropyBackward(dLogits, m.headProbs(), fs.targets, mRows, v)
	if m.fp16 && m.LossScale != 1 {
		tensor.Scale(dLogits, m.LossScale)
	}
	hdLogits := m.operand(dLogits)
	dXf := m.pick(&fs.dXf, &fs.shared[aA], mRows*h)
	m.matMul(dXf, hdLogits, tokEmb, mRows, v, h)
	m.matMulATAdd(tokEmb, hdLogits, fs.head.t[aA], mRows, v, h)

	// Final layernorm. LayerNormBackward accumulates into dX, so the reused
	// buffer is zeroed first (fresh allocations used to guarantee this).
	// The input gradient is double-buffered (block i reads dX while writing
	// next); fp16 mode takes the pair from buffers forward is done with.
	dX := m.pick(&fs.dXa, &fs.x0, mRows*h)
	next := m.pick(&fs.dXb, &fs.shared[aAttnOut], mRows*h)
	tensor.Zero(dX)
	tensor.LayerNormBackward(dX, g[lnF:lnF+h], g[lnF+h:lnF+2*h], dXf,
		m.load(&fs.head, aXhat1), fs.head.invStd1, m.vec(lnF, h), mRows, h)
	m.round(dX)

	// Blocks in reverse. Under checkpointing, recompute each block's
	// internals from its saved input first.
	for i := m.Cfg.Layers - 1; i >= 0; i-- {
		if m.BackwardPreHook != nil {
			m.BackwardPreHook(i)
		}
		acts := &fs.blocks[i]
		if m.Checkpoint {
			if m.Store != nil {
				acts.x = m.Store.Get(i)
			}
			m.blockForward(i, acts, fs.outs[i], fs.batch, fs.seqLen) // rebuild internals
		}
		m.blockBackward(i, acts, dX, next, fs.batch, fs.seqLen)
		dX, next = next, dX
		if m.BackwardHook != nil {
			m.BackwardHook(i)
		}
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
