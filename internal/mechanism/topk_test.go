package mechanism

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"socialrec/internal/distribution"
)

// Top-k releases over a tail-free stream of a dense vector, where a pick's
// node ID is its index in the vector.

// topKIndices returns the dense indices of a release drawn over
// supportStream(tailFree(u)).
func topKIndices(t *testing.T, ps []StreamPick, err error) []int {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(ps))
	for i, p := range ps {
		if p.IsTail {
			t.Fatalf("tail pick %+v from a tail-free stream", p)
		}
		out[i] = int(p.Node)
	}
	return out
}

// topKLaplace is TopKLaplaceStream over the tail-free stream of u.
func topKLaplace(t *testing.T, eps, sens float64, u []float64, k int, rng *rand.Rand) []int {
	t.Helper()
	ps, err := TopKLaplaceStream(eps, sens, supportStream(tailFree(u)), len(u), k, rng)
	return topKIndices(t, ps, err)
}

// topKPeel is TopKPeelStream over the tail-free stream of u.
func topKPeel(t *testing.T, eps, sens float64, u []float64, k int, rng *rand.Rand) []int {
	t.Helper()
	ps, err := TopKPeelStream(eps, sens, supportStream(tailFree(u)), len(u), k, rng)
	return topKIndices(t, ps, err)
}

func TestTopKLaplaceBasics(t *testing.T) {
	u := []float64{0, 10, 0, 9, 0, 8}
	rng := distribution.NewRNG(1)
	got := topKLaplace(t, 50, 1, u, 3, rng) // huge eps: effectively exact
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	want := map[int]bool{1: true, 3: true, 5: true}
	for _, i := range got {
		if !want[i] {
			t.Errorf("at eps=50 top-3 should be {1,3,5}, got %v", got)
		}
	}
	// Ordered by decreasing noisy utility: at eps=50 that's exact order.
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("order = %v, want [1 3 5]", got)
	}
}

func TestTopKLaplaceDistinct(t *testing.T) {
	u := []float64{1, 2, 3, 4, 5}
	rng := distribution.NewRNG(2)
	for trial := 0; trial < 200; trial++ {
		got := topKLaplace(t, 0.5, 1, u, 4, rng)
		seen := map[int]bool{}
		for _, i := range got {
			if seen[i] {
				t.Fatalf("duplicate index in %v", got)
			}
			seen[i] = true
		}
	}
}

func TestTopKPeelBasics(t *testing.T) {
	u := []float64{0, 10, 0, 9}
	rng := distribution.NewRNG(3)
	got := topKPeel(t, 200, 1, u, 2, rng) // eps/k = 100: effectively exact
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got %v, want [1 3]", got)
	}
}

func TestTopKPeelDistinctAndComplete(t *testing.T) {
	u := []float64{1, 2, 3}
	rng := distribution.NewRNG(4)
	got := topKPeel(t, 1, 1, u, 3, rng)
	seen := map[int]bool{}
	for _, i := range got {
		seen[i] = true
	}
	if len(seen) != 3 {
		t.Errorf("k=n peel should return all indices, got %v", got)
	}
}

func TestTopKValidation(t *testing.T) {
	rng := distribution.NewRNG(5)
	u := tailFree([]float64{1, 2})
	if _, err := TopKLaplaceStream(0, 1, supportStream(u), u.N, 1, rng); !errors.Is(err, ErrBadEpsilon) {
		t.Error("eps=0 accepted")
	}
	if _, err := TopKPeelStream(1, 0, supportStream(u), u.N, 1, rng); !errors.Is(err, ErrBadSens) {
		t.Error("sens=0 accepted")
	}
	if _, err := TopKLaplaceStream(1, 1, supportStream(u), u.N, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKPeelStream(1, 1, supportStream(u), u.N, 3, rng); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := TopKLaplaceStream(1, 1, supportStream(tailFree(nil)), 0, 1, rng); !errors.Is(err, ErrEmpty) {
		t.Error("empty u accepted")
	}
}

func TestTopKPeelDoesNotMutateInput(t *testing.T) {
	u := []float64{5, 4, 3, 2, 1}
	rng := distribution.NewRNG(6)
	topKPeel(t, 1, 1, u, 3, rng)
	if want := []float64{5, 4, 3, 2, 1}; !slices.Equal(u, want) {
		t.Fatalf("input mutated: %v", u)
	}
}

// TestTopKAccuracyDegradesWithK reproduces the Appendix A remark that
// multiple recommendations face strictly harsher trade-offs: at fixed ε,
// peeling spreads the budget and per-set accuracy falls as k grows.
func TestTopKAccuracyDegradesWithK(t *testing.T) {
	u := make([]float64, 200)
	u[3], u[11], u[42], u[99] = 10, 9, 8, 7
	const eps = 2.0
	rng := distribution.NewRNG(7)
	meanAcc := func(k int) float64 {
		var sum float64
		const trials = 300
		for i := 0; i < trials; i++ {
			sum += setAccuracy(u, topKPeel(t, eps, 2, u, k, rng))
		}
		return sum / trials
	}
	a1 := meanAcc(1)
	a4 := meanAcc(4)
	if !(a1 > a4) {
		t.Errorf("k=1 accuracy %g should exceed k=4 accuracy %g at fixed eps", a1, a4)
	}
}

// TestTopKLaplaceBeatsPeelOnBudget: the one-shot Laplace release does not
// split ε across picks, so for multi-recommendations at the same total ε it
// should (on average) match or beat peeling on these inputs.
func TestTopKLaplaceBeatsPeelOnBudget(t *testing.T) {
	u := make([]float64, 100)
	u[3], u[11], u[42] = 10, 9, 8
	const eps, k = 1.0, 3
	rng := distribution.NewRNG(8)
	const trials = 400
	var lapSum, peelSum float64
	for i := 0; i < trials; i++ {
		lap := topKLaplace(t, eps, 2, u, k, rng)
		peel := topKPeel(t, eps, 2, u, k, rng)
		lapSum += setAccuracy(u, lap)
		peelSum += setAccuracy(u, peel)
	}
	if lapSum < peelSum*0.9 {
		t.Errorf("laplace top-k mean %g unexpectedly far below peel %g", lapSum/trials, peelSum/trials)
	}
}
