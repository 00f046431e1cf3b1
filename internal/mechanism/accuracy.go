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

// ExpectedAccuracySparse returns the exact expected accuracy Σ p_i·u_i /
// u_max of a closed-form mechanism on the sparse vector s (Definition 2
// evaluated at this input; the paper computes the Exponential mechanism's
// accuracy "from the definition directly", §7.1). The zero tail contributes
// no expected utility, so only the support terms enter the sum. It returns
// ErrNoCandidates when u_max == 0, since accuracy is a ratio to the best
// attainable utility.
func ExpectedAccuracySparse(d SparseDistribution, s SparseVec) (float64, error) {
	umax := s.max()
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	support, _, err := d.ProbabilitiesSparse(s)
	if err != nil {
		return 0, err
	}
	terms := make([]float64, len(support))
	for i := range terms {
		terms[i] = support[i] * s.at(i)
	}
	return stats.Sum(terms) / umax, nil
}

// MonteCarloAccuracyStream estimates the expected accuracy of any mechanism
// over a stream of the nonzero support with n candidates in all: trials
// streamed draws, tail picks attaining utility 0, the utility attained
// averaged and divided by u_max. This is how the paper evaluates the
// Laplace mechanism; trials < 1 means DefaultLaplaceTrials.
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
