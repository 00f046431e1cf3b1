package utility

import (
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
)

// BenchmarkWeightedPathsStream times the weighted-paths kernel the way an
// uncached read runs it: StreamSparse on a seeded Wiki-Vote-shaped graph
// (7,115 nodes, ~100k edges), γ = 0.005, paths up to length 3, targets
// drawn uniformly, the scorer closed without being drained. It reports the
// mean support size as nnz/op.
func BenchmarkWeightedPathsStream(b *testing.B) {
	g, err := gen.WikiVoteLike(distribution.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap := g.Snapshot()
	w := WeightedPaths{Gamma: 0.005}
	rng := distribution.NewRNG(2)
	targets := make([]int, 1024)
	for i := range targets {
		targets[i] = rng.Intn(snap.NumNodes())
	}
	nnz := 0
	for _, t := range targets {
		idx, _, err := w.Sparse(snap, t)
		if err != nil {
			b.Fatal(err)
		}
		nnz += len(idx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := w.StreamSparse(snap, targets[i%len(targets)])
		if err != nil {
			b.Fatal(err)
		}
		sc.Close()
	}
	b.ReportMetric(float64(nnz)/float64(len(targets)), "nnz/op")
}
