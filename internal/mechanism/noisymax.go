package mechanism

import (
	"fmt"
	"math"
	"math/rand"
)

// GumbelMax is "report noisy max" with Gumbel noise: it adds an independent
// Gumbel(Δf/ε) variate to each utility and reports the argmax. By the
// Gumbel-max trick this is *exactly* the Exponential mechanism — the argmax
// of (ε/Δf)·u_i + G_i is distributed as softmax((ε/Δf)·u) — so it inherits
// Theorem 4's ε-differential privacy, while needing only a single pass and
// no normalizing constant. No serving path selects it: it exists only in
// this dense form, as an oracle for the Gumbel-max identity that the
// property tests in this package check empirically against Exponential.
type GumbelMax struct {
	// Epsilon is the privacy parameter ε > 0.
	Epsilon float64
	// Sensitivity is Δf > 0 for the utility function in use.
	Sensitivity float64
}

// Name implements Mechanism.
func (g GumbelMax) Name() string { return fmt.Sprintf("gumbel-max(eps=%g)", g.Epsilon) }

// Recommend implements Mechanism.
func (g GumbelMax) Recommend(u []float64, rng *rand.Rand) (int, error) {
	if !(g.Epsilon > 0) {
		return 0, ErrBadEpsilon
	}
	if !(g.Sensitivity > 0) {
		return 0, ErrBadSens
	}
	if err := validate(u); err != nil {
		return 0, err
	}
	scale := g.Epsilon / g.Sensitivity
	best := 0
	bestVal := math.Inf(-1)
	for i, x := range u {
		if v := scale*x + gumbel(rng); v > bestVal {
			best = i
			bestVal = v
		}
	}
	return best, nil
}

// Probabilities implements Distribution via the exact Gumbel-max identity:
// the selection distribution equals the Exponential mechanism's.
func (g GumbelMax) Probabilities(u []float64) ([]float64, error) {
	return Exponential(g).Probabilities(u)
}

// gumbel draws a standard Gumbel variate: -ln(-ln(U)), U uniform in (0,1).
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	if u == 0 {
		u = math.Nextafter(0, 1)
	}
	return -math.Log(-math.Log(u))
}
