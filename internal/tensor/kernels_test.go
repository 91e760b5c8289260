package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// Finite-difference gradient checks for every nonlinear kernel. These anchor
// the manual backprop in internal/model: if the primitives' gradients are
// right and the chain rule is applied mechanically, the model gradients are
// right too.

const fdEps = 1e-3

// numericalGrad computes d loss/d x[i] by central differences for a scalar
// loss function of a slice.
func numericalGrad(x []float32, i int, loss func() float64) float64 {
	orig := x[i]
	x[i] = orig + fdEps
	lp := loss()
	x[i] = orig - fdEps
	lm := loss()
	x[i] = orig
	return (lp - lm) / (2 * fdEps)
}

func TestGELUGradient(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	n := 16
	x := randSlice(r, n)
	w := randSlice(r, n) // random linear functional to form a scalar loss
	loss := func() float64 {
		y, gp := make([]float32, n), make([]float32, n)
		GELU(y, gp, x)
		return testutil.Dot(y, w)
	}
	y, gp := make([]float32, n), make([]float32, n)
	GELU(y, gp, x)
	dx := make([]float32, n)
	GELUBackward(dx, w, gp)
	for i := 0; i < n; i++ {
		want := numericalGrad(x, i, loss)
		if diff := math.Abs(float64(dx[i]) - want); diff > 1e-2 {
			t.Errorf("GELU grad[%d]: analytic %v numeric %v", i, dx[i], want)
		}
	}
}

func TestLayerNormForwardStats(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m, n := 4, 32
	x := randSlice(r, m*n)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	Fill(gamma, 1)
	y := make([]float32, m*n)
	xhat := make([]float32, m*n)
	invStd := make([]float32, m)
	LayerNorm(y, xhat, invStd, x, gamma, beta, m, n, 1e-5)
	for i := 0; i < m; i++ {
		row := y[i*n : i*n+n]
		mean := testutil.Sum(row) / float64(n)
		if math.Abs(mean) > 1e-5 {
			t.Errorf("row %d mean %g, want ~0", i, mean)
		}
		var variance float64
		for _, v := range row {
			variance += (float64(v) - mean) * (float64(v) - mean)
		}
		variance /= float64(n)
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("row %d var %g, want ~1", i, variance)
		}
	}
}

func TestLayerNormGradient(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m, n := 2, 8
	x := randSlice(r, m*n)
	gamma := randSlice(r, n)
	beta := randSlice(r, n)
	w := randSlice(r, m*n)
	forward := func() float64 {
		y := make([]float32, m*n)
		xhat := make([]float32, m*n)
		invStd := make([]float32, m)
		LayerNorm(y, xhat, invStd, x, gamma, beta, m, n, 1e-5)
		return testutil.Dot(y, w)
	}
	y := make([]float32, m*n)
	xhat := make([]float32, m*n)
	invStd := make([]float32, m)
	LayerNorm(y, xhat, invStd, x, gamma, beta, m, n, 1e-5)
	dx := make([]float32, m*n)
	dGamma := make([]float32, n)
	dBeta := make([]float32, n)
	LayerNormBackward(dx, dGamma, dBeta, w, xhat, invStd, gamma, m, n)

	for i := 0; i < m*n; i++ {
		want := numericalGrad(x, i, forward)
		if diff := math.Abs(float64(dx[i]) - want); diff > 2e-2 {
			t.Errorf("LayerNorm dx[%d]: analytic %v numeric %v", i, dx[i], want)
		}
	}
	for j := 0; j < n; j++ {
		want := numericalGrad(gamma, j, forward)
		if diff := math.Abs(float64(dGamma[j]) - want); diff > 2e-2 {
			t.Errorf("LayerNorm dGamma[%d]: analytic %v numeric %v", j, dGamma[j], want)
		}
		want = numericalGrad(beta, j, forward)
		if diff := math.Abs(float64(dBeta[j]) - want); diff > 2e-2 {
			t.Errorf("LayerNorm dBeta[%d]: analytic %v numeric %v", j, dBeta[j], want)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m, n := 3, 10
	x := randSlice(r, m*n)
	y := make([]float32, m*n)
	softmaxRows(y, x, m, n)
	for i := 0; i < m; i++ {
		row := y[i*n : i*n+n]
		s := testutil.Sum(row)
		if math.Abs(s-1) > 1e-5 {
			t.Errorf("softmax row %d sums to %g", i, s)
		}
		for j, v := range row {
			if v <= 0 || v >= 1 {
				t.Errorf("softmax[%d][%d] = %v out of (0,1)", i, j, v)
			}
		}
	}
	// Shift invariance: softmax(x + c) == softmax(x).
	shifted := make([]float32, m*n)
	copy(shifted, x)
	for i := range shifted {
		shifted[i] += 1000
	}
	y2 := make([]float32, m*n)
	softmaxRows(y2, shifted, m, n)
	if d := testutil.MaxDiff(y, y2); d > 1e-5 {
		t.Errorf("softmax not shift invariant: %g", d)
	}
}

func TestSoftmaxGradient(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	m, n := 2, 6
	x := randSlice(r, m*n)
	w := randSlice(r, m*n)
	forward := func() float64 {
		y := make([]float32, m*n)
		softmaxRows(y, x, m, n)
		return testutil.Dot(y, w)
	}
	p := make([]float32, m*n)
	softmaxRows(p, x, m, n)
	dx := make([]float32, m*n)
	softmaxRowsBackward(dx, w, p, m, n)
	for i := 0; i < m*n; i++ {
		want := numericalGrad(x, i, forward)
		if diff := math.Abs(float64(dx[i]) - want); diff > 1e-2 {
			t.Errorf("softmax dx[%d]: analytic %v numeric %v", i, dx[i], want)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	m, v := 3, 7
	logits := randSlice(r, m*v)
	targets := []int{2, 0, 6}
	forward := func() float64 {
		probs := make([]float32, m*v)
		return CrossEntropy(probs, logits, targets, m, v)
	}
	probs := make([]float32, m*v)
	CrossEntropy(probs, logits, targets, m, v)
	dLogits := make([]float32, m*v)
	CrossEntropyBackward(dLogits, probs, targets, m, v)
	for i := 0; i < m*v; i++ {
		want := numericalGrad(logits, i, forward)
		if diff := math.Abs(float64(dLogits[i]) - want); diff > 1e-2 {
			t.Errorf("CE dLogits[%d]: analytic %v numeric %v", i, dLogits[i], want)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	m, v := 2, 4
	logits := make([]float32, m*v)
	logits[0*v+1] = 50
	logits[1*v+3] = 50
	probs := make([]float32, m*v)
	loss := CrossEntropy(probs, logits, []int{1, 3}, m, v)
	if loss > 1e-5 {
		t.Errorf("confident correct prediction loss %g, want ~0", loss)
	}
}

func TestOpsBasics(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Add(y, x)
	if want := []float32{5, 7, 9}; testutil.MaxDiff(y, want) != 0 {
		t.Fatalf("Add: got %v, want %v", y, want)
	}
	Copy(y, x)
	Scale(y, 2)
	if want := []float32{2, 4, 6}; testutil.MaxDiff(y, want) != 0 {
		t.Fatalf("Copy+Scale: got %v, want %v", y, want)
	}
	if n := Norm2([]float32{3, 4}); n != 5 {
		t.Errorf("Norm2 = %v, want 5", n)
	}
	Fill(x, 7)
	Zero(x[:1])
	if want := []float32{0, 7, 7}; testutil.MaxDiff(x, want) != 0 {
		t.Errorf("Fill+Zero: got %v, want %v", x, want)
	}
}

// attnRun runs CausalAttention on fresh buffers and returns ctx and probs.
func attnRun(qkv []float32, probsH HalfBuffer, batch, seq, heads, dh int) (ctx, probs []float32, overflow bool) {
	ctx = make([]float32, batch*seq*heads*dh)
	probs = make([]float32, batch*heads*seq*seq)
	overflow = CausalAttention(ctx, probs, qkv, probsH, batch, seq, heads, dh,
		make([]float32, AttentionScratchLen(seq, dh)))
	return ctx, probs, overflow
}

// The attention core against the definition: per (sample, head), row t of
// the probabilities is the softmax of scale·q_t·k_u over u ≤ t and zero
// beyond it, and the context row is their mix of the value rows.
func TestCausalAttentionMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	const batch, seq, heads, dh = 2, 5, 3, 4
	w := heads * dh
	qkv := randSlice(r, batch*seq*3*w)
	ctx, probs, _ := attnRun(qkv, nil, batch, seq, heads, dh)
	at := func(b, t, sec, hd, j int) float64 { return float64(qkv[(b*seq+t)*3*w+sec*w+hd*dh+j]) }
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			for tq := 0; tq < seq; tq++ {
				p := make([]float64, seq)
				var sum float64
				for u := 0; u <= tq; u++ {
					var s float64
					for j := 0; j < dh; j++ {
						s += at(b, tq, 0, hd, j) * at(b, u, 1, hd, j)
					}
					p[u] = math.Exp(s / math.Sqrt(dh))
					sum += p[u]
				}
				for u := 0; u < seq; u++ {
					got := float64(probs[((b*heads+hd)*seq+tq)*seq+u])
					if math.Abs(got-p[u]/sum) > 1e-5 {
						t.Fatalf("probs[b%d h%d t%d u%d] = %g, want %g", b, hd, tq, u, got, p[u]/sum)
					}
				}
				for j := 0; j < dh; j++ {
					var want float64
					for u := 0; u <= tq; u++ {
						want += p[u] / sum * at(b, u, 2, hd, j)
					}
					if got := float64(ctx[(b*seq+tq)*w+hd*dh+j]); math.Abs(got-want) > 1e-5 {
						t.Fatalf("ctx[b%d t%d h%d j%d] = %g, want %g", b, tq, hd, j, got, want)
					}
				}
			}
		}
	}
}

// Scores far below any mask value still leave the future at zero weight:
// every score here is −2e10, so each row is uniform over its prefix.
func TestCausalAttentionHugeNegativeScores(t *testing.T) {
	const batch, seq, heads, dh = 1, 4, 1, 4
	qkv := make([]float32, batch*seq*3*heads*dh)
	for tok := 0; tok < seq; tok++ {
		for j := 0; j < dh; j++ {
			qkv[tok*3*dh+j] = 1e5                   // q
			qkv[tok*3*dh+dh+j] = -1e5               // k
			qkv[tok*3*dh+2*dh+j] = float32(tok + 1) // v
		}
	}
	ctx, probs, _ := attnRun(qkv, nil, batch, seq, heads, dh)
	for tq := 0; tq < seq; tq++ {
		for u := 0; u < seq; u++ {
			want := float32(0)
			if u <= tq {
				want = 1 / float32(tq+1)
			}
			if got := probs[tq*seq+u]; math.Abs(float64(got-want)) > 1e-6 {
				t.Errorf("probs[t%d u%d] = %g, want %g", tq, u, got, want)
			}
		}
		// The mean of v over the prefix: (1 + … + (tq+1)) / (tq+1).
		if got, want := ctx[tq*dh], float32(tq+2)/2; math.Abs(float64(got-want)) > 1e-5 {
			t.Errorf("ctx[t%d] = %g, want %g", tq, got, want)
		}
	}
}

func TestCausalAttentionGradient(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const batch, seq, heads, dh = 2, 4, 2, 3
	w := heads * dh
	qkv := randSlice(r, batch*seq*3*w)
	wgt := randSlice(r, batch*seq*w) // random linear functional to form a scalar loss
	loss := func() float64 {
		ctx, _, _ := attnRun(qkv, nil, batch, seq, heads, dh)
		return testutil.Dot(ctx, wgt)
	}
	_, probs, _ := attnRun(qkv, nil, batch, seq, heads, dh)
	dQKV := randSlice(r, len(qkv)) // stale contents must be overwritten
	CausalAttentionBackward(dQKV, wgt, qkv, probs, batch, seq, heads, dh,
		make([]float32, AttentionScratchLen(seq, dh)))
	for i := range qkv {
		want := numericalGrad(qkv, i, loss)
		if diff := math.Abs(float64(dQKV[i]) - want); diff > 1e-2 {
			t.Errorf("attention grad[%d]: analytic %v numeric %v", i, dQKV[i], want)
		}
	}
}

// With a half store the saved probabilities are exactly what the store
// decodes to, and the context is computed from those rounded values.
func TestCausalAttentionHalfStore(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const batch, seq, heads, dh = 2, 6, 2, 4
	qkv := randSlice(r, batch*seq*3*heads*dh)
	probsH := NewHalfBuffer(batch * heads * seq * seq)
	ctx, probs, overflow := attnRun(qkv, probsH, batch, seq, heads, dh)
	if overflow {
		t.Error("probabilities in [0,1] reported an fp16 overflow")
	}
	if d := testutil.MaxDiff(probs, probsH.Floats()); d != 0 {
		t.Errorf("saved fp32 probabilities differ from the half store by %g", d)
	}
	_, exact, _ := attnRun(qkv, nil, batch, seq, heads, dh)
	if testutil.MaxDiff(probs, exact) == 0 {
		t.Fatal("rounding through binary16 changed no probability; test is vacuous")
	}
	// Recompute the context from the rounded probabilities alone.
	w := heads * dh
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			for tq := 0; tq < seq; tq++ {
				for j := 0; j < dh; j++ {
					var want float64
					for u := 0; u <= tq; u++ {
						want += float64(probs[((b*heads+hd)*seq+tq)*seq+u]) * float64(qkv[(b*seq+u)*3*w+2*w+hd*dh+j])
					}
					if got := float64(ctx[(b*seq+tq)*w+hd*dh+j]); math.Abs(got-want) > 1e-6 {
						t.Fatalf("ctx[b%d t%d h%d j%d] = %g, want %g from rounded probabilities", b, tq, hd, j, got, want)
					}
				}
			}
		}
	}
}
