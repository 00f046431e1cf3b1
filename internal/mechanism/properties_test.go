package mechanism

import (
	"math"
	"testing"
	"testing/quick"

	"socialrec/internal/distribution"
)

// Property tests for the definitional claims of §3-4 of the paper.

// TestAccuracyRescaleInvariance: "our definition of accuracy is invariant
// to rescaling utility vectors" (§3.3). Scaling utilities by c while
// scaling Δf by c leaves the exponential mechanism's expected accuracy
// unchanged.
func TestAccuracyRescaleInvariance(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 2 + rng.Intn(8)
		u := make([]float64, n)
		positive := false
		for i := range u {
			u[i] = 10 * rng.Float64()
			if u[i] > 0 {
				positive = true
			}
		}
		if !positive {
			return true
		}
		c := 0.1 + 10*rng.Float64()
		scaled := make([]float64, n)
		for i := range u {
			scaled[i] = c * u[i]
		}
		a1, err := ExpectedAccuracySparse(Exponential{Epsilon: 1, Sensitivity: 2}, tailFree(u))
		if err != nil {
			return false
		}
		a2, err := ExpectedAccuracySparse(Exponential{Epsilon: 1, Sensitivity: 2 * c}, tailFree(scaled))
		if err != nil {
			return false
		}
		return math.Abs(a1-a2) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestExponentialMonotonicityProperty: Definition 4 — a higher-utility
// candidate is always recommended with strictly higher probability.
func TestExponentialMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 2 + rng.Intn(10)
		u := make([]float64, n)
		for i := range u {
			u[i] = 5 * rng.Float64()
		}
		p, _, err := (Exponential{Epsilon: 1, Sensitivity: 1}).ProbabilitiesSparse(tailFree(u))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u[i] > u[j] && !(p[i] > p[j]) {
					return false
				}
				if u[i] == u[j] && math.Abs(p[i]-p[j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

// TestSmoothingMonotonicityProperty: A_S(x) over R_best is monotonic in
// expectation — strictly higher utility never gets lower probability.
func TestSmoothingMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 2 + rng.Intn(10)
		u := make([]float64, n)
		for i := range u {
			u[i] = float64(rng.Intn(5))
		}
		p, _, err := (Smoothing{X: 0.5, Base: Best{}}).ProbabilitiesSparse(tailFree(u))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u[i] > u[j] && p[i] < p[j]-1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

// TestLaplaceMonotoneInExpectationProperty: the paper notes A_L "only
// satisfies monotonicity in expectation" — the Lemma 3 closed form at n=2
// must give the higher-utility candidate probability >= 1/2.
func TestLaplaceMonotoneInExpectationProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		u := []float64{10 * rng.Float64(), 10 * rng.Float64()}
		p := lemma3(Laplace{Epsilon: 0.5 + 2*rng.Float64(), Sensitivity: 1}, u)
		if u[0] > u[1] {
			return p[0] >= 0.5
		}
		if u[1] > u[0] {
			return p[1] >= 0.5
		}
		return math.Abs(p[0]-0.5) < 1e-12
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestProbabilityVectorsValidProperty: every closed-form mechanism returns
// a valid probability vector on arbitrary non-negative input.
func TestProbabilityVectorsValidProperty(t *testing.T) {
	mechs := []SparseDistribution{
		Best{},
		Uniform{},
		Exponential{Epsilon: 1.3, Sensitivity: 2},
		Smoothing{X: 0.4, Base: Best{}},
	}
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 1 + rng.Intn(12)
		u := make([]float64, n)
		for i := range u {
			u[i] = 100 * rng.Float64()
		}
		for _, m := range mechs {
			p, _, err := m.ProbabilitiesSparse(tailFree(u))
			if err != nil {
				return false
			}
			var sum float64
			for _, x := range p {
				if x < 0 || math.IsNaN(x) {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}
