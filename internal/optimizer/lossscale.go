package optimizer

// LossScaler implements dynamic loss scaling for fp16 training: the loss is
// multiplied by Scale before backward so small gradients survive fp16
// underflow; gradients are unscaled before the optimizer step; on overflow
// (Inf/NaN gradients) the step is skipped and the scale backed off, and
// after GrowthInterval clean steps the scale doubles.
type LossScaler struct {
	Scale          float64
	GrowthFactor   float64
	BackoffFactor  float64
	GrowthInterval int

	goodSteps int
	skips     int
}

// NewLossScaler returns a scaler with the conventional defaults
// (initial 2^16, ×2 growth every 1000 clean steps, ×0.5 backoff).
func NewLossScaler() *LossScaler {
	return &LossScaler{Scale: 65536, GrowthFactor: 2, BackoffFactor: 0.5, GrowthInterval: 1000}
}

// Update records the overflow status of a step and adjusts the scale.
// It returns true when the step must be skipped.
func (s *LossScaler) Update(overflow bool) (skip bool) {
	if overflow {
		s.Scale *= s.BackoffFactor
		if s.Scale < 1 {
			s.Scale = 1
		}
		s.goodSteps = 0
		s.skips++
		return true
	}
	s.goodSteps++
	if s.goodSteps >= s.GrowthInterval {
		s.Scale *= s.GrowthFactor
		s.goodSteps = 0
	}
	return false
}

// Skips returns the number of overflow-skipped steps so far.
func (s *LossScaler) Skips() int { return s.skips }
