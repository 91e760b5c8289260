package losscurve

import (
	"testing"
	"testing/quick"
)

const (
	turingNLG = 17_000_000_000
	megatron  = 8_300_000_000
)

// Figure 5's headline: the 17B model's final perplexity lands at the
// record ~10.21 and below the 8.3B baseline at every iteration.
func TestTuringNLGBeatsMegatronEverywhere(t *testing.T) {
	big := Curve{Params: turingNLG}
	small := Curve{Params: megatron}
	for iter := 0; iter <= 300_000; iter += 10_000 {
		if big.Perplexity(iter) >= small.Perplexity(iter) {
			t.Fatalf("iter %d: 17B ppl %.2f not below 8.3B ppl %.2f",
				iter, big.Perplexity(iter), small.Perplexity(iter))
		}
	}
	final := big.Perplexity(300_000)
	if final < 9.5 || final > 11.5 {
		t.Errorf("17B final perplexity %.2f, want ≈10.21", final)
	}
	baseFinal := small.Perplexity(300_000)
	if baseFinal < 11 || baseFinal > 14 {
		t.Errorf("8.3B final perplexity %.2f, want ≈12-13", baseFinal)
	}
}

// Properties: perplexity decreases monotonically in iterations and in model
// size, and never crosses the floor.
func TestCurveProperties(t *testing.T) {
	f := func(pRaw uint32, i1, i2 uint16) bool {
		params := int64(pRaw)%int64(90e9) + int64(100e6)
		c := Curve{Params: params}
		a, b := int(i1), int(i2)
		if a > b {
			a, b = b, a
		}
		if b > a && c.Loss(b) > c.Loss(a) {
			return false
		}
		bigger := Curve{Params: params * 2}
		if bigger.Loss(a) >= c.Loss(a) {
			return false
		}
		return c.Loss(a) > lossFloor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeriesShape(t *testing.T) {
	s := Curve{Params: turingNLG}.series(300_000, 31)
	if len(s) != 31 || s[0].Iter != 0 || s[30].Iter != 300_000 {
		t.Fatalf("series endpoints wrong: %+v ... %+v", s[0], s[30])
	}
	for i := 1; i < len(s); i++ {
		if s[i].Perplexity >= s[i-1].Perplexity {
			t.Fatalf("series not strictly decreasing at %d", i)
		}
	}
}

// FitSlope recovers exact trends, tolerates noise-free flats, and signs
// measured-style noisy descents correctly.
func TestFitSlope(t *testing.T) {
	if got := FitSlope([]float64{5, 4, 3, 2, 1}); got != -1 {
		t.Errorf("exact line slope = %g, want -1", got)
	}
	if got := FitSlope([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("flat slope = %g, want 0", got)
	}
	if got := FitSlope(nil); got != 0 {
		t.Errorf("empty slope = %g, want 0", got)
	}
	if got := FitSlope([]float64{7}); got != 0 {
		t.Errorf("single-point slope = %g, want 0", got)
	}
	// A descending trajectory with step-to-step wobble still fits negative.
	noisy := []float64{6.0, 5.6, 5.7, 5.1, 5.2, 4.8, 4.9, 4.4}
	if got := FitSlope(noisy); got >= 0 {
		t.Errorf("noisy descent slope = %g, want < 0", got)
	}
	// And the synthetic model curve itself fits negative.
	c := Curve{Params: 1e9}
	var tr []float64
	for i := 0; i < 50; i++ {
		tr = append(tr, c.Loss(i*100))
	}
	if got := FitSlope(tr); got >= 0 {
		t.Errorf("model curve slope = %g, want < 0", got)
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative iteration")
		}
	}()
	Curve{Params: 1e9}.Loss(-1)
}
