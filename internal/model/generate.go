package model

// Inference helpers. Training is the paper's subject, but a model you can
// sample from is the natural smoke test that the full pipeline — embedding,
// attention, MLP, tied output head — computes something meaningful, and it
// gives the examples a way to show a trained artifact.

// NextToken returns the greedy (argmax) next-token prediction for a single
// sequence of ids.
func (m *Model) NextToken(ids []int) int {
	if len(ids) == 0 {
		panic("model: NextToken needs at least one token")
	}
	dummy := make([]int, len(ids))
	m.Loss(ids, dummy, 1)
	m.fwd = nil // inference does not retain backward state
	last := (len(ids) - 1) * m.Cfg.Vocab
	row := m.headProbs()[last : last+m.Cfg.Vocab]
	best := 0
	for i, p := range row {
		if p > row[best] {
			best = i
		}
	}
	return best
}

// Generate extends prompt by n greedy tokens, re-running the forward pass
// per token (no KV cache — clarity over speed at test scale). The context
// window slides once the configured sequence length is reached.
func (m *Model) Generate(prompt []int, n int) []int {
	out := append([]int(nil), prompt...)
	for i := 0; i < n; i++ {
		ctx := out
		if len(ctx) > m.Cfg.Seq {
			ctx = ctx[len(ctx)-m.Cfg.Seq:]
		}
		out = append(out, m.NextToken(ctx))
	}
	return out[len(prompt):]
}
