package tensor

import "math"

// Multi-head causal self-attention core, between the QKV projection and the
// output projection: per (sample, head), gather the head's Q/K/V out of the
// packed rows, scores = scale·Q·Kᵀ, each row's softmax over its causal
// prefix (the future gets probability 0), context = P·V, scatter back. The
// packed layout is one row per token, [Q|K|V] with heads·dh columns each,
// so a head-parallel Megatron shard (model.NewSharded) passes its owned
// head count and gets the same kernel over narrower rows.

// AttentionScratchLen returns the scratch length CausalAttention and
// CausalAttentionBackward need for heads of shape [seq × dh].
func AttentionScratchLen(seq, dh int) int { return 8*seq*dh + 2*seq*seq }

// gatherHead copies one (sample, head) slice of the packed QKV rows into
// contiguous [seq × dh] matrices.
func gatherHead(qh, kh, vh, qkv []float32, b, hd, seq, heads, dh int) {
	w := heads * dh
	for t := 0; t < seq; t++ {
		base := (b*seq+t)*3*w + hd*dh
		copy(qh[t*dh:(t+1)*dh], qkv[base:base+dh])
		copy(kh[t*dh:(t+1)*dh], qkv[base+w:base+w+dh])
		copy(vh[t*dh:(t+1)*dh], qkv[base+2*w:base+2*w+dh])
	}
}

// CausalAttention computes ctx[batch·seq × heads·dh] from the packed
// qkv[batch·seq × 3·heads·dh] and saves the attention probabilities
// [batch·heads × seq × seq] for the backward pass, overwriting both. With a
// non-nil probsH (the fp16 compute path) each head's probabilities round
// through binary16 into it, and in place, before the context product, so
// backward replays exactly the probabilities forward used; the result
// reports whether any of them left the fp16 range.
func CausalAttention(ctx, probs, qkv []float32, probsH HalfBuffer, batch, seq, heads, dh int, scratch []float32) (overflow bool) {
	w := heads * dh
	checkDims(len(qkv), batch*seq*3*w, "qkv")
	checkDims(len(ctx), batch*seq*w, "ctx")
	checkDims(len(probs), batch*heads*seq*seq, "probs")
	n := seq * dh
	qh, kh, vh, ctxh := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:4*n]
	scale := float32(1 / math.Sqrt(float64(dh)))
	var e [laneChunk]float64
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			gatherHead(qh, kh, vh, qkv, b, hd, seq, heads, dh)
			lo := (b*heads + hd) * seq * seq
			p := probs[lo : lo+seq*seq]
			MatMulBT(p, qh, kh, seq, dh, seq)
			// Row t is the softmax of its causal prefix [0, t]; the future
			// gets exact zeros whatever the scores' scale.
			for t := 0; t < seq; t++ {
				row := p[t*seq : (t+1)*seq]
				Scale(row[:t+1], scale)
				softmaxRow(row[:t+1], row[:t+1], &e)
				Zero(row[t+1:])
			}
			if probsH != nil {
				overflow = probsH[lo:lo+seq*seq].FromFloatsRound(p) || overflow
			}
			MatMul(ctxh, p, vh, seq, seq, dh)
			for t := 0; t < seq; t++ {
				copy(ctx[(b*seq+t)*w+hd*dh:(b*seq+t)*w+(hd+1)*dh], ctxh[t*dh:(t+1)*dh])
			}
		}
	}
	return overflow
}

// CausalAttentionBackward overwrites dQKV (packed like qkv) with the
// gradient of CausalAttention given dCtx and the forward's qkv and probs.
func CausalAttentionBackward(dQKV, dCtx, qkv, probs []float32, batch, seq, heads, dh int, scratch []float32) {
	w := heads * dh
	checkDims(len(qkv), batch*seq*3*w, "qkv")
	checkDims(len(dQKV), batch*seq*3*w, "dQKV")
	checkDims(len(dCtx), batch*seq*w, "dCtx")
	checkDims(len(probs), batch*heads*seq*seq, "probs")
	n := seq * dh
	qh, kh, vh, dctxh := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[4*n:5*n]
	dqh, dkh, dvh := scratch[5*n:6*n], scratch[6*n:7*n], scratch[7*n:8*n]
	dP, dS := scratch[8*n:8*n+seq*seq], scratch[8*n+seq*seq:8*n+2*seq*seq]
	scale := float32(1 / math.Sqrt(float64(dh)))
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			gatherHead(qh, kh, vh, qkv, b, hd, seq, heads, dh)
			p := probs[(b*heads+hd)*seq*seq : (b*heads+hd+1)*seq*seq]
			for t := 0; t < seq; t++ {
				copy(dctxh[t*dh:(t+1)*dh], dCtx[(b*seq+t)*w+hd*dh:(b*seq+t)*w+(hd+1)*dh])
			}
			// ctx = P·V.
			MatMulBT(dP, dctxh, vh, seq, dh, seq)
			matMulAT(dvh, p, dctxh, seq, seq, dh, false)
			// Softmax over each row's causal prefix (accumulating kernel,
			// hence the zeroing; the future's gradient stays zero), then
			// the scale applied to the scores before it.
			Zero(dS)
			for t := 0; t < seq; t++ {
				lo, hi := t*seq, t*seq+t+1
				softmaxRowsBackward(dS[lo:hi], dP[lo:hi], p[lo:hi], 1, t+1)
			}
			Scale(dS, scale)
			// scores = scale·Q·Kᵀ.
			MatMul(dqh, dS, kh, seq, seq, dh)
			matMulAT(dkh, dS, qh, seq, seq, dh, false)
			for t := 0; t < seq; t++ {
				base := (b*seq+t)*3*w + hd*dh
				copy(dQKV[base:base+dh], dqh[t*dh:(t+1)*dh])
				copy(dQKV[base+w:base+w+dh], dkh[t*dh:(t+1)*dh])
				copy(dQKV[base+2*w:base+2*w+dh], dvh[t*dh:(t+1)*dh])
			}
		}
	}
}
