package perfmodel

// Shape is a GPT-2-like transformer architecture, the workload family of
// the paper's entire evaluation (§10.1: "models presented in this section
// are GPT-2 like transformer based models").
type Shape struct {
	Layers int
	Hidden int
	Heads  int
	Vocab  int
	Seq    int
}

// DefaultVocab and DefaultSeq are the GPT-2 values used throughout the
// paper's experiments (sequence length 1K, §3.2).
const (
	DefaultVocab = 50257
	DefaultSeq   = 1024
)

// GPT2Like builds a Shape with the paper's default vocabulary and sequence
// length.
func GPT2Like(layers, hidden, heads int) Shape {
	return Shape{Layers: layers, Hidden: hidden, Heads: heads, Vocab: DefaultVocab, Seq: DefaultSeq}
}

// Params returns the parameter count Ψ: 12h²+13h per transformer layer
// plus token and position embeddings and the final layernorm.
func (s Shape) Params() int64 {
	h := int64(s.Hidden)
	perLayer := 12*h*h + 13*h
	emb := int64(s.Vocab)*h + int64(s.Seq)*h
	return int64(s.Layers)*perLayer + emb + 2*h
}

// flopsPerStep returns the training flops for one step of one model replica
// at the given micro-batch, using the standard transformer accounting with
// activation recomputation included (the 4/3 recompute factor is folded into
// the constant): F = 96·B·s·l·h²·(1 + s/(6h) + V/(16·l·h)).
func (s Shape) flopsPerStep(batch int) float64 {
	b := float64(batch)
	sl := float64(s.Seq)
	l := float64(s.Layers)
	h := float64(s.Hidden)
	v := float64(s.Vocab)
	return 96 * b * sl * l * h * h * (1 + sl/(6*h) + v/(16*l*h))
}

// activationElemsPerSample is the total activation footprint of one sample
// in elements, per the paper's footnote 3: ≈ 12 × hidden × seq × layers.
func (s Shape) activationElemsPerSample() int64 {
	return 12 * int64(s.Hidden) * int64(s.Seq) * int64(s.Layers)
}

// checkpointElemsPerSample is the activation-checkpoint footprint of one
// sample in elements when checkpointing one activation per transformer
// layer (§6.1): hidden × seq × layers.
func (s Shape) checkpointElemsPerSample() int64 {
	return int64(s.Hidden) * int64(s.Seq) * int64(s.Layers)
}
