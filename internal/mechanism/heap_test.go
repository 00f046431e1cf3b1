package mechanism

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTopIndices* pin the bounded heap's selection through BestTopKStream:
// over a tail-free stream it must select exactly what a stable descending
// sort of the vector selects (denseTopIndices).

// bestTopK is BestTopKStream over the tail-free stream of xs, as indices.
func bestTopK(t *testing.T, xs []float64, k int) []int {
	t.Helper()
	ps, err := BestTopKStream(supportStream(tailFree(xs)), len(xs), k)
	return topKIndices(t, ps, err)
}

func TestTopIndicesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			// Coarse values force plenty of ties.
			xs[i] = float64(rng.Intn(6))
		}
		k := 1 + rng.Intn(n)
		got := bestTopK(t, xs, k)
		want := denseTopIndices(xs, k)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d xs=%v): got %v want %v", trial, n, k, xs, got, want)
		}
	}
}

func TestTopIndicesFullLength(t *testing.T) {
	xs := []float64{1, 3, 3, 0, 5}
	got := bestTopK(t, xs, len(xs))
	want := []int{4, 1, 2, 0, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
