package mechanism

import (
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

// BenchmarkTopKPeelStream times the private top-10 peel (ε = 1) over the
// weighted-paths supports (γ = 0.005) of uniformly drawn targets on a
// seeded Wiki-Vote-shaped graph, the top-k layer of an uncached read. The
// supports are materialized up front so only the peel is timed.
func BenchmarkTopKPeelStream(b *testing.B) {
	g, err := gen.WikiVoteLike(distribution.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap := g.Snapshot()
	w := utility.WeightedPaths{Gamma: 0.005}
	sens := w.Sensitivity(snap)
	type support struct {
		sc    *stream.Slice
		ncand int
	}
	rng := distribution.NewRNG(2)
	supports := make([]support, 64)
	for i := range supports {
		t := rng.Intn(snap.NumNodes())
		idx, val, err := w.Sparse(snap, t)
		if err != nil {
			b.Fatal(err)
		}
		supports[i] = support{stream.NewSlice(idx, val), utility.CandidateCount(snap, t)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := supports[i%len(supports)]
		if _, err := TopKPeelStream(1, sens, s.sc, s.ncand, 10, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleSparseCDF times one cached exponential draw (ε = 1,
// Δf = 2) from a SparseCDF over a 5,000-entry support of integer
// utilities in [1, 20], common-neighbour counts in shape, plus a
// 15,000-candidate zero tail: the per-request mechanism cost of a cache
// hit, without HTTP. The support is held one float64 per entry, and
// level-coded as the cache holds it (20 levels, one byte per entry).
func BenchmarkSampleSparseCDF(b *testing.B) {
	rng := distribution.NewRNG(6)
	val := make([]float64, 5000)
	for i := range val {
		val[i] = float64(1 + rng.Intn(20))
	}
	_, code, levels := stream.Encode(stream.NewSlice(nil, val))
	if code == nil {
		b.Fatal("support not level-coded")
	}
	for _, bc := range []struct {
		name string
		s    SparseVec
	}{
		{"per-node", SparseVec{Val: val, N: 20000}},
		{"coded", SparseVec{Code: code, Val: levels, N: 20000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cdf, err := Exponential{Epsilon: 1, Sensitivity: 2}.SparseCDF(bc.s)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				SampleSparseCDF(cdf, rng)
			}
		})
	}
}
