// Package losscurve models validation-perplexity trajectories of GPT-family
// language models with a parameter-count + iteration scaling law. It stands
// in for the paper's Figure 5 (Turing-NLG 17B vs Megatron-LM 8.3B over 300K
// iterations): the figure's claim — the ZeRO-enabled 17B model reaches a
// lower perplexity than the previous 8.3B SOTA, ending near the record
// WebText-103 perplexity of 10.21 — is a consequence of the
// larger-models-reach-lower-loss scaling law, which this package encodes.
// This comment is the substitution's record: we have neither the corpus nor
// 400 GPUs, but the ordering and asymptote structure are what the figure
// communicates.
//
// Surface: Curve (Loss, Perplexity) for Figure 5, and FitSlope, the
// least-squares trend engine's and zero's training tests assert a descending
// loss with. Imported by internal/experiments.
package losscurve

import "math"

// Scaling-law calibration. Loss (nats/token) of an infinitely-trained
// N-parameter model: lossFloor + paramCoeff·N^(-paramExp), calibrated so
// 17B ≈ 2.32 nats (perplexity 10.2, Turing-NLG's record) and 8.3B ≈ 2.5
// nats (perplexity ≈ 12, Megatron-LM's result).
const (
	lossFloor  = 1.6
	paramExp   = 0.3
	paramCoeff = 845.0

	// Iteration decay: + iterCoeff·(1 + iter/iterScale)^(-iterExp).
	iterCoeff = 2.6
	iterExp   = 0.8
	iterScale = 2000.0
)

// Curve is the loss trajectory of one model size.
type Curve struct {
	Params int64 // parameter count
}

// asymptoticLoss returns the converged validation loss in nats/token.
func (c Curve) asymptoticLoss() float64 {
	return lossFloor + paramCoeff*math.Pow(float64(c.Params), -paramExp)
}

// Loss returns the validation loss after the given training iteration.
func (c Curve) Loss(iter int) float64 {
	if iter < 0 {
		panic("losscurve: negative iteration")
	}
	return c.asymptoticLoss() + iterCoeff*math.Pow(1+float64(iter)/iterScale, -iterExp)
}

// Perplexity returns exp(Loss) at the given iteration — the metric of
// Figure 5's y-axis.
func (c Curve) Perplexity(iter int) float64 {
	return math.Exp(c.Loss(iter))
}

// point is one sample of a perplexity trajectory.
type point struct {
	Iter       int
	Perplexity float64
}

// series samples the trajectory at `points` evenly spaced iterations up to
// maxIter inclusive.
func (c Curve) series(maxIter, points int) []point {
	if points < 2 {
		panic("losscurve: need at least two points")
	}
	out := make([]point, points)
	for i := range out {
		it := i * maxIter / (points - 1)
		out[i] = point{Iter: it, Perplexity: c.Perplexity(it)}
	}
	return out
}

// FitSlope returns the least-squares slope of a measured loss trajectory
// (loss units per step). Stochastic curves wobble step to step, so "the
// loss decreases" is asserted on the fitted trend rather than on adjacent
// samples; a healthy run has a clearly negative slope. Fewer than two
// points have no trend and return 0.
func FitSlope(losses []float64) float64 {
	n := float64(len(losses))
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range losses {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / denom
}
