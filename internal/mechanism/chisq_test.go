package mechanism

import (
	"math/rand"
	"testing"
)

// Chi-squared goodness-of-fit of Exponential's draw frequencies against its
// closed-form distribution. The utility vector, seed, and trial count are
// fixed, so the statistic is deterministic; the threshold is the chi-squared
// critical value at alpha = 1e-3 for the appropriate degrees of freedom,
// giving a seeded test that would only flake if the seed itself were
// adversarial. This is the statistical check that the sampler actually
// implements the exp((ε/Δf)·u_i) law the privacy proof is about — unit
// tests of the closed form alone cannot catch a biased sampler. The draws
// are the served ones, over a tail-free stream of the vector; the law is
// the dense oracle's.

// chi2Critical999 maps degrees of freedom to the chi-squared critical value
// at alpha = 1e-3.
var chi2Critical999 = map[int]float64{
	1:  10.828,
	2:  13.816,
	3:  16.266,
	4:  18.467,
	5:  20.515,
	6:  22.458,
	7:  24.322,
	8:  26.124,
	9:  27.877,
	10: 29.588,
}

func chiSquared(t *testing.T, counts []int, probs []float64, trials int) float64 {
	t.Helper()
	stat := 0.0
	for i, p := range probs {
		expected := p * float64(trials)
		if expected < 5 {
			t.Fatalf("cell %d expected count %.2f < 5; pick a larger trial count", i, expected)
		}
		d := float64(counts[i]) - expected
		stat += d * d / expected
	}
	return stat
}

func TestExponentialChiSquaredGoodnessOfFit(t *testing.T) {
	cases := []struct {
		name string
		u    []float64
		eps  float64
		sens float64
		seed int64
	}{
		{"spread", []float64{0, 1, 2, 3, 5}, 1, 1, 42},
		{"flat-ties", []float64{2, 2, 2, 2}, 1, 2, 7},
		{"tight-eps", []float64{0, 1, 4, 9, 9, 12}, 0.5, 3, 11},
		{"lenient-eps", []float64{0, 3, 1, 2, 0, 1, 2, 4}, 3, 2, 13},
	}
	const trials = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := Exponential{Epsilon: tc.eps, Sensitivity: tc.sens}
			probs := denseProbabilities(e, tc.u)
			rng := rand.New(rand.NewSource(tc.seed))
			counts := make([]int, len(tc.u))
			for i := 0; i < trials; i++ {
				p, err := drawStream(e, tailFree(tc.u), rng)
				if err != nil {
					t.Fatal(err)
				}
				counts[p.Support]++
			}
			stat := chiSquared(t, counts, probs, trials)
			t.Logf("chi-squared %.6f (df=%d)", stat, len(tc.u)-1)
			crit, ok := chi2Critical999[len(tc.u)-1]
			if !ok {
				t.Fatalf("no critical value for df=%d", len(tc.u)-1)
			}
			if stat > crit {
				t.Fatalf("chi-squared %.3f exceeds critical value %.3f (df=%d): draws do not follow the exponential-mechanism law\ncounts: %v\nprobs:  %v",
					stat, crit, len(tc.u)-1, counts, probs)
			}
		})
	}
}

// TestSampleCDFChiSquaredGoodnessOfFit runs the same check against the
// cached-CDF sampling path the serving cache uses, so a bias introduced in
// SparseCDF/SampleSparseCDF (rather than RecommendStream) would also be
// caught.
func TestSampleCDFChiSquaredGoodnessOfFit(t *testing.T) {
	u := []float64{0, 1, 2, 3, 5}
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	probs := denseProbabilities(e, u)
	cdf, err := e.SparseCDF(tailFree(u))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 200000
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, len(u))
	for i := 0; i < trials; i++ {
		counts[SampleSparseCDF(cdf, rng).Support]++
	}
	stat := chiSquared(t, counts, probs, trials)
	t.Logf("chi-squared %.6f (df=%d)", stat, len(u)-1)
	if crit := chi2Critical999[len(u)-1]; stat > crit {
		t.Fatalf("chi-squared %.3f exceeds critical value %.3f: cached-CDF draws biased\ncounts: %v\nprobs:  %v",
			stat, crit, counts, probs)
	}
}
