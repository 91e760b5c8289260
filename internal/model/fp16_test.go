package model

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The fp16 path must track the f32 path closely at init: same near-uniform
// loss, and gradients that agree to fp16 rounding noise.
func TestFP16LossAndGradsTrackF32(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)

	ref := New(cfg, 42)
	ref.ZeroGrads()
	lossF := ref.Loss(ids, targets, 2)
	ref.Backward()

	half := New(cfg, 42)
	half.SetFP16Compute(true)
	half.ZeroGrads()
	lossH := half.Loss(ids, targets, 2)
	half.Backward()

	if math.Abs(lossH-lossF) > 0.02*math.Abs(lossF) {
		t.Errorf("fp16 loss %.5f drifts from f32 loss %.5f", lossH, lossF)
	}
	if half.TakeOverflow() {
		t.Error("unexpected overflow on a well-scaled batch")
	}
	// Relative L2 error of the full gradient.
	var num, den float64
	for i := range ref.Grads {
		d := float64(half.Grads[i] - ref.Grads[i])
		num += d * d
		den += float64(ref.Grads[i]) * float64(ref.Grads[i])
	}
	if den == 0 {
		t.Fatal("degenerate reference gradient")
	}
	if rel := math.Sqrt(num / den); rel > 0.05 {
		t.Errorf("fp16 gradient relative L2 error %.4f > 0.05", rel)
	}
}

// The fp16 path is deterministic: two models with the same seed produce
// bitwise-identical losses and gradients.
func TestFP16Deterministic(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)
	run := func() (float64, []float32) {
		m := New(cfg, 7)
		m.SetFP16Compute(true)
		m.ZeroGrads()
		l := m.Loss(ids, targets, 2)
		m.Backward()
		return l, append([]float32(nil), m.Grads...)
	}
	l1, g1 := run()
	l2, g2 := run()
	if l1 != l2 {
		t.Errorf("same seed, different fp16 loss: %v vs %v", l1, l2)
	}
	if d := testutil.MaxDiff(g1, g2); d != 0 {
		t.Errorf("same seed, different fp16 grads: %g", d)
	}
}

// Loss scaling: the forward loss is unaffected, and gradients computed at
// scale S are S times the unscaled gradients (the backward d-stream is
// linear in dLogits) up to fp16 rounding at the staging boundaries.
func TestFP16LossScaleScalesGradients(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(5, 2, cfg.Seq, cfg.Vocab)

	base := New(cfg, 13)
	base.SetFP16Compute(true)
	base.ZeroGrads()
	lossBase := base.Loss(ids, targets, 2)
	base.Backward()

	scaled := New(cfg, 13)
	scaled.SetFP16Compute(true)
	scaled.LossScale = 1024
	scaled.ZeroGrads()
	lossScaled := scaled.Loss(ids, targets, 2)
	scaled.Backward()

	if lossBase != lossScaled {
		t.Errorf("loss scale leaked into the forward pass: %v vs %v", lossBase, lossScaled)
	}
	var num, den float64
	for i := range base.Grads {
		d := float64(scaled.Grads[i]/1024 - base.Grads[i])
		num += d * d
		den += float64(base.Grads[i]) * float64(base.Grads[i])
	}
	if rel := math.Sqrt(num / den); rel > 0.01 {
		t.Errorf("unscaled gradients drift by relative L2 %.5f", rel)
	}
}

// An absurd loss scale overflows the fp16 gradient stores; TakeOverflow
// must report it once and clear.
func TestFP16OverflowDetection(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(9, 2, cfg.Seq, cfg.Vocab)
	m := New(cfg, 21)
	m.SetFP16Compute(true)
	m.LossScale = 1e30
	m.ZeroGrads()
	m.Loss(ids, targets, 2)
	m.Backward()
	if !m.TakeOverflow() {
		t.Fatal("loss scale 1e30 did not overflow fp16 gradient stores")
	}
	if m.TakeOverflow() {
		t.Error("overflow flag did not clear")
	}
	// A sane scale on the same model recovers cleanly.
	m.LossScale = 1
	m.ZeroGrads()
	m.Loss(ids, targets, 2)
	m.Backward()
	if m.TakeOverflow() {
		t.Error("overflow persisted after backing off the loss scale")
	}
	if testutil.HasNaNOrInf(m.Grads) {
		t.Error("non-finite gradients after recovery")
	}
}

// SGD on the fp16 path (fp32 master update + half-copy refresh every step)
// must learn the synthetic pattern like the f32 path does.
func TestFP16TrainingReducesLoss(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	m := New(cfg, 5)
	m.SetFP16Compute(true)
	ids, targets := SyntheticBatch(21, 4, cfg.Seq, cfg.Vocab)
	first := m.Loss(ids, targets, 4)
	loss := first
	const lr = 0.05
	for step := 0; step < 30; step++ {
		m.ZeroGrads()
		loss = m.Loss(ids, targets, 4)
		m.Backward()
		testutil.AXPY(-lr, m.Grads, m.Params)
		m.refreshHalfParams(0, len(m.Params))
	}
	if loss >= first-0.3 {
		t.Errorf("fp16 loss did not fall: %.4f -> %.4f", first, loss)
	}
}

// Compute residency (step workspace plus the parameter copy the kernels
// read: fp32 Params on the f32 path, 2-byte ParamsH on the fp16 path —
// the master then counts as optimizer state, per the paper's accounting)
// must come in under 60% of the f32 baseline at a bench-representative
// shape. This is the model-level half of the acceptance gate.
func TestFP16ResidencyUnder60Percent(t *testing.T) {
	cfg := Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 512, Seq: 32}
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)

	ref := New(cfg, 1)
	ref.ZeroGrads()
	ref.Loss(ids, targets, 2)
	ref.Backward()
	f32Bytes := ref.WorkspaceBytes() + int64(len(ref.Params))*tensor.BytesPerFloat32

	half := New(cfg, 1)
	half.SetFP16Compute(true)
	half.ZeroGrads()
	half.Loss(ids, targets, 2)
	half.Backward()
	fp16Bytes := half.WorkspaceBytes() + half.ParamsH.Bytes()

	if fp16Bytes >= f32Bytes*3/5 {
		t.Errorf("fp16 residency %d B is not under 60%% of f32 residency %d B (%.1f%%)",
			fp16Bytes, f32Bytes, 100*float64(fp16Bytes)/float64(f32Bytes))
	}
}

// WorkspaceBytes after one step is the slot inventory of workspace.go and
// fp16.go, term by term, at Layers 1 and 4 (no checkpointing). GELU's g′
// lives in slot aH1: in fp32 mode it overwrites h1's own buffer and dH1
// overwrites dG, so no [M,ffn] gradient slot remains; in fp16 mode it is a
// per-block fp32 buffer in place of h1's binary16 store. Against the layout
// that recomputed tanh in backward, fp32 is 4·M·ffn B smaller and fp16
// (2L−4)·M·ffn B larger.
func TestWorkspaceBytesInventory(t *testing.T) {
	for _, layers := range []int{1, 4} {
		cfg := Config{Layers: layers, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
		const batch = 2
		ids, targets := SyntheticBatch(7, batch, cfg.Seq, cfg.Vocab)
		h, v, seq, dh := cfg.Hidden, cfg.Vocab, cfg.Seq, cfg.Hidden/cfg.Heads
		rows := batch * seq
		n, ffn := rows*h, rows*4*h // [M,h] and [M,ffn]
		probs := batch * cfg.Heads * seq * seq
		attn := tensor.AttentionScratchLen(seq, dh)
		idBytes := 2 * rows * 8 // ids and targets

		// fp32: per block, slots aX … aMlin (8 of [M,h], aQKV 3), aProbs,
		// aH1 (g′) and aG, and both invStd; the head's aX, aA and aXhat1 and
		// invStd; logits, probs, dLogits; dXf and the dX pair; attention
		// scratch; backward's scratch aX2, aMlin, aCtx, aA, sDQKV (3) and aG.
		perBlock := 11*n + probs + 2*ffn + 2*rows
		f32 := layers*perBlock + 3*n + rows + 3*rows*v + 3*n + attn + 7*n + ffn

		// fp16: binary16 stores for aXhat1, aA, aQKV, aCtx, aXhat2, aMlin,
		// aProbs and aG, and the fp32 g′ and invStd pair, per block; the
		// head's aXhat1 and aA stores and invStd; the one staging buffer per
		// slot (forward, load and backward share it: 11 of [M,h] with
		// sDQKV's 3, aProbs, aH1, aG); logits (probs and dLogits in place);
		// attention scratch; the parameter-vector scratch at its widest (the
		// FC1 bias); the operand stage at its widest, dH1.
		halves := layers*(8*n+probs+ffn) + 2*n + ffn
		floats := layers*(ffn+2*rows) + rows + 14*n + probs + 2*ffn + rows*v + attn + 4*h

		for _, c := range []struct {
			name string
			fp16 bool
			want int
		}{
			{"fp32", false, 4*f32 + idBytes},
			{"fp16", true, 4*floats + 2*halves + idBytes},
		} {
			m := New(cfg, 1)
			m.SetFP16Compute(c.fp16)
			m.Loss(ids, targets, batch)
			m.Backward()
			if got := m.WorkspaceBytes(); got != int64(c.want) {
				t.Errorf("Layers %d %s: WorkspaceBytes %d, inventory %d", layers, c.name, got, c.want)
			}
		}
	}
}

// Backward on the fp16 path requires a preceding Loss, like the f32 path.
func TestFP16BackwardWithoutLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := New(tinyConfig(), 1)
	m.SetFP16Compute(true)
	m.Backward()
}

// gradChecksum is the FNV-1a 64 hash of the gradient buffer's IEEE-754 bit
// patterns, little-endian, in layout order: a single-ulp change in any
// gradient element changes it.
func gradChecksum(g []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range g {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// Absolute golden for the fp16 compute path: one Loss+Backward on a fixed
// model and batch must reproduce the recorded loss to the last digit and the
// recorded gradient bit patterns exactly, at loss scale 1 and 1024. The
// values were recorded before the fp16 forward/backward twin was folded into
// the fp32 path and must not be edited by a refactor: they pin every
// rounding point of the half-precision sequence (which tensors round through
// binary16, and where), not just closeness to fp32.
func TestFP16LossAndGradsGolden(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)
	for _, tc := range []struct {
		scale float32
		loss  float64
		grads uint64
	}{
		{1, 2.8352152904379624, 0xbb2a0e85bafdbbc6},
		{1024, 2.8352152904379624, 0xeabf88b4ec1cb8b4},
	} {
		m := New(cfg, 42)
		m.SetFP16Compute(true)
		m.LossScale = tc.scale
		m.ZeroGrads()
		loss := m.Loss(ids, targets, 2)
		m.Backward()
		if m.TakeOverflow() {
			t.Errorf("scale %g: unexpected overflow", tc.scale)
		}
		if loss != tc.loss {
			t.Errorf("scale %g: fp16 loss %.17g, want %.17g", tc.scale, loss, tc.loss)
		}
		if sum := gradChecksum(m.Grads); sum != tc.grads {
			t.Errorf("scale %g: fp16 gradient checksum %#016x, want %#016x", tc.scale, sum, tc.grads)
		}
	}
}

// Switching fp16 compute off must hand back everything the fp16 layout
// held — ParamsH, the 2-byte stores, the shared staging — and leave a model
// indistinguishable from one that never left fp32 mode.
func TestFP16SwitchOffReleasesHalfBuffers(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)
	step := func(m *Model) float64 {
		m.ZeroGrads()
		l := m.Loss(ids, targets, 2)
		m.Backward()
		return l
	}
	ref := New(cfg, 7)
	wantLoss := step(ref)

	m := New(cfg, 7)
	m.SetFP16Compute(true)
	step(m)
	m.SetFP16Compute(false)
	if m.fp16 || m.ParamsH != nil {
		t.Errorf("fp16 compute off, but FP16Compute=%v and ParamsH holds %d B", m.fp16, m.ParamsH.Bytes())
	}
	if got := m.WorkspaceBytes(); got != 0 {
		t.Errorf("workspace still holds %d B of the fp16 layout after switching off", got)
	}
	if l := step(m); l != wantLoss {
		t.Errorf("fp32 loss after switching back %.17g, want %.17g", l, wantLoss)
	}
	if got, want := m.WorkspaceBytes(), ref.WorkspaceBytes(); got != want {
		t.Errorf("workspace %d B after switching back, want the fp32 value %d B", got, want)
	}
	if d := testutil.MaxDiff(m.Grads, ref.Grads); d != 0 {
		t.Errorf("fp32 gradients after switching back differ by %g", d)
	}
}

// fp16 compute runs with activation checkpointing, and checkpointing is
// bitwise invisible there: every block input is already rounded at the
// block boundary, so its 2-byte checkpoint is exact and the recompute
// rebuilds the same stores. Loss, gradients and the overflow flag equal the
// run without Checkpoint, at loss scale 1 and 1024, over two steps (the
// second reuses the workspace).
func TestFP16WithCheckpointPanics(t *testing.T) {
	cfg := Config{Layers: 3, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)
	for _, scale := range []float32{1, 1024} {
		run := func(checkpoint bool) (losses []float64, grads []uint64, overflow bool) {
			m := New(cfg, 42)
			m.SetFP16Compute(true)
			m.LossScale = scale
			m.Checkpoint = checkpoint
			for step := 0; step < 2; step++ {
				m.ZeroGrads()
				losses = append(losses, m.Loss(ids, targets, 2))
				m.Backward()
				grads = append(grads, gradChecksum(m.Grads))
				testutil.AXPY(-0.1, m.Grads, m.Params)
				m.refreshHalfParams(0, len(m.Params))
			}
			return losses, grads, m.TakeOverflow()
		}
		wantL, wantG, wantO := run(false)
		gotL, gotG, gotO := run(true)
		for s := range wantL {
			if gotL[s] != wantL[s] || gotG[s] != wantG[s] {
				t.Errorf("scale %g step %d: checkpointed loss %.17g grads %#016x, want %.17g %#016x",
					scale, s, gotL[s], gotG[s], wantL[s], wantG[s])
			}
		}
		if gotO != wantO {
			t.Errorf("scale %g: overflow flag %v under Checkpoint, want %v", scale, gotO, wantO)
		}
	}
}
