// Package model implements a GPT-2-like transformer — the workload of every
// experiment in the ZeRO paper — with real numerics: forward pass, manual
// backpropagation, activation checkpointing, and flat parameter storage.
//
// All parameters live in one flat []float32 with per-tensor segments. That
// layout is what makes the package a faithful ZeRO substrate: ZeRO-DP
// partitions the flat space across data-parallel ranks, stage 3 gathers it
// segment by segment, and gradient bucketing walks the same offsets. The
// model is exercised at laptop scale (tiny vocab/hidden sizes) for
// correctness; the paper-scale shapes are handled analytically by
// internal/perfmodel.
//
// Every parameter read goes through one window per layer group
// (LayerSegments), and every gradient write through one per gradient unit
// (Layout.Units, a third of a block): a standalone model (New, NewSharded)
// points them all at its own Params (ParamsH in fp16 mode) and Grads, while
// a NewWindowed model reads and writes only what its caller binds
// (BindParams, BindGrad) — ZeRO binds a group's gathered parameters just
// before the group's compute and a unit's gradient window just before its
// first write, so at stage 3 no rank holds a Ψ-long buffer of either.
// InitParams writes any range of the seeded initial parameters without
// building the rest.
//
// Surface: Config, New, NewWindowed and NewSharded build a Model (Loss,
// Backward, ZeroGrads, BindParams, BindGrad, SetFP16Compute and the
// workspace readers) over a flat Layout of Segments; InitParams;
// SyntheticBatch,
// NewSyntheticStream and ShardBatch make and split batches; CheckpointStore
// and Reducer are the hooks zero and internal/mp plug in. Imported by zero,
// engine, serve, experiments, cmd/zerotrain, the examples and bench.
package model

import "fmt"

// Config describes a transformer architecture. The JSON tags are the
// "model" block of the declarative engine config (internal/engine).
type Config struct {
	Layers int `json:"layers"` // transformer blocks
	Hidden int `json:"hidden"` // embedding width h
	Heads  int `json:"heads"`  // attention heads (must divide Hidden)
	Vocab  int `json:"vocab"`  // token vocabulary
	Seq    int `json:"seq"`    // maximum sequence length (position table size)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.Vocab <= 0 || c.Seq <= 0:
		return fmt.Errorf("model: all dimensions must be positive: %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	return nil
}

// Segment names one parameter tensor inside the flat buffer. Layer < 0
// marks non-block tensors (embeddings, final layernorm).
type Segment struct {
	Name  string
	Layer int
	Lo    int // inclusive start offset in the flat parameter buffer
	Hi    int // exclusive end offset
}

// Len returns the segment's element count.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Layout is the flat-buffer address map of every parameter tensor.
type Layout struct {
	Segments []Segment
	// Units are the gradient units, in layout order: the embeddings, each
	// block's [ln1, qkv, proj], [ln2, fc1] and [fc2] (named attn, mlp.in and
	// mlp.out; Backward finishes them last first), then the final
	// layernorm. Each is a run of whole tensors. Backward writes gradients
	// unit by unit (Model.BindGrad, UnitPreHook, UnitHook), and ZeRO binds,
	// buckets and reduces them the same way.
	Units []Segment
	Total int

	// Offsets used by the forward/backward passes.
	tokEmb, posEmb int
	lnF            int
	blocks         []blockOffsets

	// This rank's block widths: attention heads of dh columns each and the
	// FFN width — all of Config's at MP degree 1, 1/N of them on a Megatron
	// shard (NewSharded).
	heads, dh, ffn int
}

type blockOffsets struct {
	ln1Gamma, ln1Beta int
	wQKV, bQKV        int
	wProj, bProj      int
	ln2Gamma, ln2Beta int
	wFC1, bFC1        int
	wFC2, bFC2        int
}

// BuildLayout computes the address map for a configuration. The layout
// order is embeddings, then blocks in order, then the final layernorm —
// matching the temporal order parameters are needed in the forward pass,
// which is what ZeRO stage 3's pipelined all-gather schedule exploits
// (§7.2.2).
func BuildLayout(c Config) Layout { return buildLayout(c, 1) }

// buildLayout is BuildLayout for one rank of an n-way Megatron shard: the
// QKV projection keeps 3·(heads/n)·dh columns, the output projection as many
// rows, and the MLP a 4h/n slice. n must divide Heads.
func buildLayout(c Config, n int) Layout {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	h := c.Hidden
	l := Layout{heads: c.Heads / n, dh: h / c.Heads, ffn: 4 * h / n}
	k, ffn := l.heads*l.dh, l.ffn
	off := 0
	add := func(name string, layer, n int) int {
		lo := off
		off += n
		l.Segments = append(l.Segments, Segment{Name: name, Layer: layer, Lo: lo, Hi: off})
		return lo
	}
	l.tokEmb = add("tok_emb", -1, c.Vocab*h)
	l.posEmb = add("pos_emb", -1, c.Seq*h)
	l.blocks = make([]blockOffsets, c.Layers)
	for i := 0; i < c.Layers; i++ {
		b := &l.blocks[i]
		b.ln1Gamma = add(fmt.Sprintf("block%d.ln1.gamma", i), i, h)
		b.ln1Beta = add(fmt.Sprintf("block%d.ln1.beta", i), i, h)
		b.wQKV = add(fmt.Sprintf("block%d.attn.wqkv", i), i, h*3*k)
		b.bQKV = add(fmt.Sprintf("block%d.attn.bqkv", i), i, 3*k)
		b.wProj = add(fmt.Sprintf("block%d.attn.wproj", i), i, k*h)
		b.bProj = add(fmt.Sprintf("block%d.attn.bproj", i), i, h)
		b.ln2Gamma = add(fmt.Sprintf("block%d.ln2.gamma", i), i, h)
		b.ln2Beta = add(fmt.Sprintf("block%d.ln2.beta", i), i, h)
		b.wFC1 = add(fmt.Sprintf("block%d.mlp.w1", i), i, h*ffn)
		b.bFC1 = add(fmt.Sprintf("block%d.mlp.b1", i), i, ffn)
		b.wFC2 = add(fmt.Sprintf("block%d.mlp.w2", i), i, ffn*h)
		b.bFC2 = add(fmt.Sprintf("block%d.mlp.b2", i), i, h)
	}
	l.lnF = add("ln_f.gamma", -1, h)
	add("ln_f.beta", -1, h)
	l.Total = off
	l.Units = []Segment{{Name: "embeddings", Layer: -1, Hi: l.blocks[0].ln1Gamma}}
	for i, b := range l.blocks {
		ends := [4]int{b.ln1Gamma, b.ln2Gamma, b.wFC2, b.bFC2 + h}
		for j, name := range [3]string{"attn", "mlp.in", "mlp.out"} {
			l.Units = append(l.Units, Segment{Name: fmt.Sprintf("block%d.%s", i, name), Layer: i, Lo: ends[j], Hi: ends[j+1]})
		}
	}
	l.Units = append(l.Units, Segment{Name: "ln_f", Layer: -1, Lo: l.lnF, Hi: l.Total})
	return l
}

// ParamCount returns the total number of parameters for the configuration:
// 12h²+13h per layer plus embeddings and the final layernorm. (The output
// head is tied to the token embedding, as in GPT-2.)
func (c Config) ParamCount() int {
	return BuildLayout(c).Total
}

// LayerSegments groups the flat-buffer ranges by transformer block; index
// -1 (stored first) covers the embeddings, index Layers the final norm.
// ZeRO uses these groups as its gather/discard granularity and as its
// parameter windows (Model.BindParams).
func (l Layout) LayerSegments(layers int) []Segment {
	out := make([]Segment, 0, layers+2)
	for g := 0; g < layers+2; g++ {
		lo, hi := l.group(g)
		out = append(out, Segment{Name: l.groupName(g), Layer: g - 1, Lo: lo, Hi: hi})
	}
	return out
}

// groupName names layer group g, indexed as LayerSegments: "embeddings",
// "block<i>" or "ln_f".
func (l Layout) groupName(g int) string {
	switch {
	case g == 0:
		return "embeddings"
	case g == len(l.blocks)+1:
		return "ln_f"
	}
	return fmt.Sprintf("block%d", g-1)
}

// group returns the flat range [lo, hi) of layer group g, indexed as
// LayerSegments: the embeddings, the blocks, then the final layernorm.
func (l Layout) group(g int) (lo, hi int) {
	switch L := len(l.blocks); {
	case g == 0:
		return 0, l.blocks[0].ln1Gamma
	case g == L+1:
		return l.lnF, l.Total
	case g == L:
		return l.blocks[g-1].ln1Gamma, l.lnF
	default:
		return l.blocks[g-1].ln1Gamma, l.blocks[g].ln1Gamma
	}
}
