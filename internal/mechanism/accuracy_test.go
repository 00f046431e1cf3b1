package mechanism

import (
	"errors"
	"math"
	"testing"

	"socialrec/internal/distribution"
)

func TestExpectedAccuracyBestIsOne(t *testing.T) {
	acc, err := ExpectedAccuracySparse(Best{}, tailFree([]float64{1, 9, 4}))
	if err != nil || math.Abs(acc-1) > 1e-12 {
		t.Errorf("accuracy = %g, %v", acc, err)
	}
}

func TestExpectedAccuracyUniform(t *testing.T) {
	// Uniform over {0, 10}: E[u] = 5, umax = 10 -> accuracy 0.5.
	acc, err := ExpectedAccuracySparse(Uniform{}, tailFree([]float64{0, 10}))
	if err != nil || math.Abs(acc-0.5) > 1e-12 {
		t.Errorf("accuracy = %g, %v", acc, err)
	}
}

func TestExpectedAccuracyNoCandidates(t *testing.T) {
	if _, err := ExpectedAccuracySparse(Best{}, tailFree([]float64{0, 0})); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

func TestExpectedAccuracyExponentialIncreasingInEpsilon(t *testing.T) {
	u := tailFree([]float64{0, 0, 0, 0, 1})
	prev := 0.0
	for _, eps := range []float64{0.1, 0.5, 1, 3, 10} {
		acc, err := ExpectedAccuracySparse(Exponential{Epsilon: eps, Sensitivity: 1}, u)
		if err != nil {
			t.Fatal(err)
		}
		if acc <= prev {
			t.Errorf("accuracy not increasing: eps=%g gives %g after %g", eps, acc, prev)
		}
		prev = acc
	}
}

func TestMonteCarloAccuracyMatchesClosedForm(t *testing.T) {
	u := []float64{0, 1, 2, 5}
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	want, err := ExpectedAccuracySparse(e, tailFree(u))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloAccuracyStream(e, supportStream(tailFree(u)), len(u), 200000, distribution.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Monte Carlo %g vs closed form %g", got, want)
	}
}

func TestMonteCarloAccuracyDefaultTrials(t *testing.T) {
	// trials < 1 should fall back to the paper's 1,000.
	got, err := MonteCarloAccuracyStream(Best{}, supportStream(tailFree([]float64{1, 2})), 2, 0, distribution.NewRNG(1))
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("accuracy = %g, %v", got, err)
	}
}

func TestMonteCarloAccuracyNoCandidates(t *testing.T) {
	if _, err := MonteCarloAccuracyStream(Best{}, supportStream(tailFree([]float64{0})), 1, 10, distribution.NewRNG(1)); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

// TestLaplaceMatchesExponentialAccuracy reproduces the §7.2 takeaway: the
// Laplace mechanism achieves nearly identical expected accuracy to the
// Exponential mechanism across a spread of utility shapes.
func TestLaplaceMatchesExponentialAccuracy(t *testing.T) {
	shapes := map[string][]float64{
		"flat-with-winner": {1, 1, 1, 1, 3},
		"two-scale":        {0, 0, 5, 9},
		"long-tail":        {0, 0, 0, 0, 0, 0, 0, 0, 1, 2},
		"close-race":       {8, 9, 10},
	}
	for name, u := range shapes {
		for _, eps := range []float64{0.5, 1, 3} {
			exp := Exponential{Epsilon: eps, Sensitivity: 2}
			lap := Laplace{Epsilon: eps, Sensitivity: 2}
			ea, err := ExpectedAccuracySparse(exp, tailFree(u))
			if err != nil {
				t.Fatal(err)
			}
			la, err := MonteCarloAccuracyStream(lap, supportStream(tailFree(u)), len(u), 20000, distribution.NewRNG(int64(eps*100)))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ea-la) > 0.08 {
				t.Errorf("%s eps=%g: exponential %g vs laplace %g", name, eps, ea, la)
			}
		}
	}
}

func TestSmoothingAccuracyTheorem5(t *testing.T) {
	// Theorem 5: A_S(x) over a µ-accurate base has accuracy >= x·µ. With
	// Best (µ=1), accuracy = x + (1-x)·E_uniform[u]/umax exactly.
	u := tailFree([]float64{0, 0, 0, 4})
	for _, x := range []float64{0, 0.25, 0.5, 0.9} {
		acc, err := ExpectedAccuracySparse(Smoothing{X: x, Base: Best{}}, u)
		if err != nil {
			t.Fatal(err)
		}
		if acc < x-1e-12 {
			t.Errorf("x=%g: accuracy %g below Theorem 5 floor", x, acc)
		}
		want := x + (1-x)*0.25
		if math.Abs(acc-want) > 1e-12 {
			t.Errorf("x=%g: accuracy %g, want %g", x, acc, want)
		}
	}
}
