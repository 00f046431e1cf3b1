package mechanism

import (
	"math/rand"

	"socialrec/internal/stats"
	"socialrec/internal/stream"
)

// DefaultLaplaceTrials is the Monte-Carlo trial count the paper uses for
// the Laplace mechanism's expected accuracy ("1,000 independent trials of
// A_L(ε)", §7.1).
const DefaultLaplaceTrials = 1000

// ExpectedAccuracy returns the exact expected accuracy Σ p_i·u_i / u_max of
// a closed-form mechanism on the utility vector u (Definition 2 evaluated at
// this input). It returns ErrNoCandidates when u_max == 0, since accuracy is
// a ratio to the best attainable utility.
func ExpectedAccuracy(d Distribution, u []float64) (float64, error) {
	umax := maxOf(u)
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	p, err := d.Probabilities(u)
	if err != nil {
		return 0, err
	}
	terms := make([]float64, len(u))
	for i := range u {
		terms[i] = p[i] * u[i]
	}
	return stats.Sum(terms) / umax, nil
}

// MonteCarloAccuracy estimates the expected accuracy of any mechanism by
// running trials independent recommendations and averaging the utility
// attained, divided by u_max. This is how the paper evaluates the Laplace
// mechanism.
func MonteCarloAccuracy(m Mechanism, u []float64, trials int, rng *rand.Rand) (float64, error) {
	if trials < 1 {
		trials = DefaultLaplaceTrials
	}
	umax := maxOf(u)
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	var sum, comp float64
	for t := 0; t < trials; t++ {
		idx, err := m.Recommend(u, rng)
		if err != nil {
			return 0, err
		}
		y := u[idx] - comp
		s := sum + y
		comp = (s - sum) - y
		sum = s
	}
	return sum / (float64(trials) * umax), nil
}

// MonteCarloAccuracyStream is MonteCarloAccuracy over a stream of the
// nonzero support with n candidates in all: trials streamed draws, tail
// picks attaining utility 0.
func MonteCarloAccuracyStream(m StreamMechanism, sc stream.Scorer, n, trials int, rng *rand.Rand) (float64, error) {
	if trials < 1 {
		trials = DefaultLaplaceTrials
	}
	_, umax, err := scanStream(sc, n)
	if err != nil {
		return 0, err
	}
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	var sum, comp float64
	for t := 0; t < trials; t++ {
		pick, err := m.RecommendStream(sc, n, rng)
		if err != nil {
			return 0, err
		}
		y := pick.Util - comp
		acc := sum + y
		comp = (acc - sum) - y
		sum = acc
	}
	return sum / (float64(trials) * umax), nil
}

func maxOf(u []float64) float64 {
	max := 0.0
	for _, x := range u {
		if x > max {
			max = x
		}
	}
	return max
}
