package bounds

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"socialrec/internal/distribution"
	"socialrec/internal/mechanism"
)

// TestCorollary1PaperExample reproduces the worked example of §4.2: a
// 400-million-node network with k=100 near-best candidates (c=0.99), t=150,
// and ε=0.1 admits accuracy at most ≈0.46.
func TestCorollary1PaperExample(t *testing.T) {
	bound, err := Corollary1Accuracy(4e8, 100, 0.99, 0.1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bound-0.46) > 0.01 {
		t.Errorf("bound = %g, paper says ≈0.46", bound)
	}
}

func TestCorollary1Monotonicities(t *testing.T) {
	base, err := Corollary1Accuracy(100000, 10, 0.9, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// More privacy (smaller ε) => lower ceiling.
	tighter, err := Corollary1Accuracy(100000, 10, 0.9, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(tighter < base) {
		t.Errorf("smaller eps should tighten: %g vs %g", tighter, base)
	}
	// Larger t (easier rewiring... no: larger t means MORE edges needed,
	// weaker attack, looser ceiling).
	looser, err := Corollary1Accuracy(100000, 10, 0.9, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !(looser > base) {
		t.Errorf("larger t should loosen: %g vs %g", looser, base)
	}
	// More high-utility candidates (larger k) => looser ceiling.
	moreK, err := Corollary1Accuracy(100000, 1000, 0.9, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(moreK > base) {
		t.Errorf("larger k should loosen: %g vs %g", moreK, base)
	}
}

func TestCorollary1Range(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 10 + rng.Intn(100000)
		k := rng.Intn(n - 1)
		c := 0.01 + 0.98*rng.Float64()
		eps := 0.01 + 5*rng.Float64()
		tt := 1 + rng.Intn(300)
		b, err := Corollary1Accuracy(n, k, c, eps, tt)
		if err != nil {
			return false
		}
		return b >= 0 && b <= 1
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestCorollary1HugeExponentSaturates(t *testing.T) {
	b, err := Corollary1Accuracy(1000, 5, 0.9, 10, 1000)
	if err != nil || b != 1 {
		t.Errorf("bound = %g, %v; want saturation to 1", b, err)
	}
}

func TestCorollary1Errors(t *testing.T) {
	cases := []struct {
		n, k, t int
		c, eps  float64
	}{
		{1, 0, 1, 0.5, 1},   // n too small
		{10, 10, 1, 0.5, 1}, // k >= n
		{10, -1, 1, 0.5, 1}, // negative k
		{10, 1, 0, 0.5, 1},  // t < 1
		{10, 1, 1, 0, 1},    // c = 0
		{10, 1, 1, 1, 1},    // c = 1
		{10, 1, 1, 0.5, 0},  // eps = 0
	}
	for _, cse := range cases {
		if _, err := Corollary1Accuracy(cse.n, cse.k, cse.c, cse.eps, cse.t); !errors.Is(err, ErrParams) {
			t.Errorf("Corollary1Accuracy(%+v): want ErrParams, got %v", cse, err)
		}
	}
}

func TestLemma1EpsilonPositiveAndDecreasingInT(t *testing.T) {
	e1, err := Lemma1Epsilon(100000, 10, 5, 0.9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Lemma1Epsilon(100000, 10, 50, 0.9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !(e1 > e2) || e2 <= 0 {
		t.Errorf("floors: t=5 gives %g, t=50 gives %g", e1, e2)
	}
}

func TestLemma1Errors(t *testing.T) {
	if _, err := Lemma1Epsilon(100, 5, 3, 0.5, 0.7); !errors.Is(err, ErrParams) {
		t.Errorf("delta > c accepted: %v", err)
	}
	if _, err := Lemma1Epsilon(100, 5, 3, 1.0, 0.5); !errors.Is(err, ErrParams) {
		t.Errorf("c = 1 accepted: %v", err)
	}
}

// TestLemma1Corollary1Consistency: solving Lemma 1 for δ at a given ε must
// agree with Corollary 1's ceiling.
func TestLemma1Corollary1Consistency(t *testing.T) {
	n, k, tt := 100000, 20, 8
	c := 0.9
	eps := 1.0
	ceiling, err := Corollary1Accuracy(n, k, c, eps, tt)
	if err != nil {
		t.Fatal(err)
	}
	delta := 1 - ceiling
	// At accuracy exactly the ceiling, Lemma 1's floor should equal ε.
	floor, err := Lemma1Epsilon(n, k, tt, c, delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(floor-eps) > 1e-6 {
		t.Errorf("Lemma1(δ at ceiling) = %g, want ε = %g", floor, eps)
	}
}

func TestLemma2Epsilon(t *testing.T) {
	// ε >= (ln n - ln β - ln ln n)/t
	n, beta, tt := 1000000, 10, 20
	got, err := Lemma2Epsilon(n, beta, tt)
	if err != nil {
		t.Fatal(err)
	}
	want := (math.Log(1e6) - math.Log(10) - math.Log(math.Log(1e6))) / 20
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Lemma2 = %g, want %g", got, want)
	}
	// Clamps at zero for degenerate sizes.
	small, err := Lemma2Epsilon(3, 3, 1)
	if err != nil || small != 0 {
		t.Errorf("small-n Lemma2 = %g, %v", small, err)
	}
	if _, err := Lemma2Epsilon(2, 1, 1); !errors.Is(err, ErrParams) {
		t.Error("n=2 accepted")
	}
}

func TestTheorem1Epsilon(t *testing.T) {
	// dmax = ln n means α = 1 and the floor is 1/4 (leading order ln n /
	// (4 dmax) = 1/4).
	n := 100000
	dmax := int(math.Log(float64(n)))
	got, err := Theorem1Epsilon(n, dmax)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Log(float64(n))/(4*float64(dmax))) > 1e-12 {
		t.Errorf("Theorem1 = %g", got)
	}
	if got < 0.2 || got > 0.3 {
		t.Errorf("floor %g should be near 1/4 when dmax = ln n (paper: no 0.24-DP algorithm)", got)
	}
}

func TestTheorem2Epsilon(t *testing.T) {
	// Paper example after Theorem 2: graph with max degree log n — an
	// algorithm with constant accuracy is at best 1.0-differentially
	// private, i.e. the floor is ~1 when dr = ln n.
	n := 1 << 20
	dr := int(math.Log(float64(n)))
	got, err := Theorem2Epsilon(n, dr)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.8 || got > 1.1 {
		t.Errorf("Theorem2 floor %g, want ≈1 for dr = ln n", got)
	}
	// Smaller degree => harsher floor.
	lower, err := Theorem2Epsilon(n, dr/2)
	if err != nil {
		t.Fatal(err)
	}
	if !(lower > got) {
		t.Errorf("halving degree should raise the floor: %g vs %g", lower, got)
	}
}

func TestTheorem3EpsilonMatchesTheorem2ForTinyGamma(t *testing.T) {
	n, dr, dmax := 100000, 12, 500
	t2, err := Theorem2Epsilon(n, dr)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Theorem3Epsilon(n, dr, dmax, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t2-t3)/t2 > 0.01 {
		t.Errorf("gamma->0: Theorem3 %g should match Theorem2 %g", t3, t2)
	}
}

func TestTheorem3EpsilonWeakensWithGamma(t *testing.T) {
	n, dr, dmax := 100000, 12, 500
	// γ·dmax = 0.025 vs 0.075: larger s weakens (lowers) the floor.
	small, err := Theorem3Epsilon(n, dr, dmax, 0.00005)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Theorem3Epsilon(n, dr, dmax, 0.00015)
	if err != nil {
		t.Fatal(err)
	}
	if !(large < small) {
		t.Errorf("larger gamma should weaken the floor: %g vs %g", large, small)
	}
}

func TestTheorem3EpsilonNoBoundPastThreshold(t *testing.T) {
	// s = γ·dmax >= 1/9 leaves no real root: the rewiring argument yields
	// no non-trivial bound.
	got, err := Theorem3Epsilon(100000, 12, 500, 0.001) // s = 0.5
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("s=0.5 should yield trivial bound, got %g", got)
	}
}

func TestNodePrivacyEpsilon(t *testing.T) {
	n := 1000000
	got, err := NodePrivacyEpsilon(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(1e6) / 2; math.Abs(got-want) > 1e-12 {
		t.Errorf("NodePrivacy = %g, want %g", got, want)
	}
	if _, err := NodePrivacyEpsilon(2); !errors.Is(err, ErrParams) {
		t.Error("n=2 accepted")
	}
}

func TestTightestAccuracyBoundSimple(t *testing.T) {
	// One clear winner among many zeros: the ceiling must be well below 1
	// for small ε and exact-t rewiring.
	u := make([]float64, 1000)
	u[7] = 5
	b, err := tightestAccuracyBound(u, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !(b > 0 && b < 0.5) {
		t.Errorf("bound = %g, want small", b)
	}
}

func TestTightestAccuracyBoundAllZero(t *testing.T) {
	if _, err := tightestAccuracyBound(make([]float64, 5), 1, 2); !errors.Is(err, ErrNoMax) {
		t.Error("want ErrNoMax")
	}
}

func TestTightestAccuracyBoundErrors(t *testing.T) {
	if _, err := tightestAccuracyBound([]float64{1, 2}, 0, 2); !errors.Is(err, ErrParams) {
		t.Error("eps=0 accepted")
	}
	if _, err := tightestAccuracyBound([]float64{1}, 1, 2); !errors.Is(err, ErrParams) {
		t.Error("single candidate accepted")
	}
}

func TestTightestBoundLoosensWithEpsilon(t *testing.T) {
	u := make([]float64, 500)
	u[3] = 4
	u[9] = 3
	u[12] = 1
	prev := -1.0
	for _, eps := range []float64{0.25, 0.5, 1, 2, 4} {
		b, err := tightestAccuracyBound(u, eps, 5)
		if err != nil {
			t.Fatal(err)
		}
		if b < prev {
			t.Errorf("ceiling should loosen with eps: %g after %g", b, prev)
		}
		prev = b
	}
}

// TestBoundDominatesExponentialMechanism is the central consistency check
// between theory and mechanisms: the Corollary 1 ceiling (computed with the
// exact per-target t) must upper-bound the accuracy the ε-DP Exponential
// mechanism actually attains, on randomized utility vectors shaped like
// common-neighbor counts.
func TestBoundDominatesExponentialMechanism(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 50 + rng.Intn(500)
		u := make([]float64, n)
		// A few positive integer utilities, long tail of zeros.
		hi := 1 + rng.Intn(8)
		var umax float64
		for i := 0; i < hi; i++ {
			v := float64(1 + rng.Intn(10))
			u[rng.Intn(n)] = v
			if v > umax {
				umax = v
			}
		}
		if umax == 0 {
			return true
		}
		eps := 0.25 + 3*rng.Float64()
		// Common-neighbors exact t with a generic dr > umax.
		tt := int(umax) + 1
		acc, err := mechanism.ExpectedAccuracySparse(mechanism.Exponential{Epsilon: eps, Sensitivity: 2}, mechanism.SparseVec{Val: u, N: len(u)})
		if err != nil {
			return false
		}
		ceiling, err := tightestAccuracyBound(u, eps, tt)
		if err != nil {
			return false
		}
		return acc <= ceiling+1e-9
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}
