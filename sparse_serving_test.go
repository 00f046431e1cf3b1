package socialrec

// Property tests that the sparse serving pipeline (sparse kernels +
// streaming mechanism draws + tail-rank mapping) is distribution-identical
// to the dense reference pipeline (dense vector -> candidate list ->
// compact vector -> mechanism over every candidate, no zero tail) across
// every utility, mechanism, and directedness: exact per-candidate
// probabilities for the closed-form mechanisms (Exponential, Smoothing,
// Best), a seeded two-sample chi-squared for Laplace (which has no closed
// form), and fixed-seed bit-identity where the draw structure coincides
// (no zero tail). The reference runs each mechanism over the tail-free
// sparse form of the compacted vector, SparseVec{Val: vec, N: len(vec)} or
// a stream of every candidate, which package mechanism's
// TestSparseNoTailBitIdentical and TestSparseProbabilitiesMatchDense pin
// to the textbook dense law.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"socialrec/internal/gen"
	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

func servingTestGraph(t *testing.T, directed bool, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, m := 90, 360
	var g *Graph
	var err error
	if directed {
		g, err = gen.DirectedPreferentialAttachment(n, m, 10, 2.0, rng)
	} else {
		g, err = gen.PowerLawConfiguration(n, m, 1, 1.2, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func servingUtilities() []UtilityFunction {
	return []UtilityFunction{
		utility.CommonNeighbors{},
		utility.WeightedPaths{Gamma: 0.05},
		utility.PageRank{},
		utility.Degree{},
		utility.Jaccard{},
	}
}

// candidateStream streams the compacted vector vec of every candidate, so
// a pick's node ID is the candidate itself: the tail-free sparse form of
// the dense pipeline.
func candidateStream(candidates []int, vec []float64) stream.Scorer {
	idx := make([]int32, len(candidates))
	for i, c := range candidates {
		idx[i] = int32(c)
	}
	return stream.NewSlice(idx, vec)
}

// denseVector returns u's utility for every candidate of target in
// candidate order, zeros included: the kernel's stream scattered over
// zeros and gathered at the candidates. It is the dense form the serving
// tests hold the sparse path to.
func denseVector(u UtilityFunction, v utility.View, target int) ([]float64, error) {
	sc, err := u.StreamSparse(v, target)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	full := make([]float64, v.NumNodes())
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		full[i] = x
	}
	candidates := utility.Candidates(v, target)
	out := make([]float64, len(candidates))
	for k, c := range candidates {
		out[k] = full[c]
	}
	return out, nil
}

// denseServingProbs computes the reference per-node recommendation
// probabilities through the dense pipeline the serving layer used before
// sparsification.
func denseServingProbs(t *testing.T, g *Graph, u UtilityFunction, d mechanism.SparseDistribution, target int) map[int]float64 {
	t.Helper()
	snap := g.Snapshot()
	vec, err := denseVector(u, snap, target)
	if err != nil {
		t.Fatal(err)
	}
	candidates := utility.Candidates(snap, target)
	if utility.Max(vec) == 0 {
		return nil
	}
	p, _, err := d.ProbabilitiesSparse(mechanism.SparseVec{Val: vec, N: len(vec)})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]float64, len(candidates))
	for i, c := range candidates {
		out[c] = p[i]
	}
	return out
}

// sparseServingProbs reads the serving layer's cached sparse form and
// expands its closed-form probabilities to per-node values.
func sparseServingProbs(t *testing.T, r *Recommender, sd mechanism.SparseDistribution, target int) map[int]float64 {
	t.Helper()
	st := r.state.Load()
	cv, err := r.vector(st, target)
	if err != nil {
		return nil
	}
	support, tailEach, err := sd.ProbabilitiesSparse(cv.sparseVec())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]float64, cv.ncand)
	for i, node := range cv.nodes() {
		out[int(node)] = support[i]
	}
	sc := cv.slice()
	for rank := 0; rank < cv.ncand-cv.len(); rank++ {
		out[streamComplementSelect(st.snap.Out(target), &sc, target, rank)] = tailEach
	}
	return out
}

// TestSparseServingMatchesDenseProbabilities is the exact-equivalence arm:
// for every utility x mechanism x directedness, the sparse serving path
// assigns every candidate node the same recommendation probability as the
// dense pipeline (bit-equal for Best/Smoothing, 1 ulp-scale tolerance for
// Exponential whose normalizing sums associate differently).
func TestSparseServingMatchesDenseProbabilities(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 41)
		for _, u := range servingUtilities() {
			for _, kind := range []MechanismKind{MechanismExponential, MechanismSmoothing, MechanismNone} {
				rec, err := NewRecommender(g, WithEpsilon(1), WithUtility(u), WithMechanism(kind), WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				sd, ok := rec.state.Load().mech.(mechanism.SparseDistribution)
				if !ok {
					t.Fatalf("%v has no sparse closed form", kind)
				}
				exact := kind != MechanismExponential
				checked := 0
				for target := 0; target < g.NumNodes() && checked < 12; target++ {
					dense := denseServingProbs(t, g, u, sd, target)
					sparse := sparseServingProbs(t, rec, sd, target)
					if dense == nil || sparse == nil {
						if (dense == nil) != (sparse == nil) {
							t.Fatalf("%s/%v target %d: dense nil=%v sparse nil=%v",
								u.Name(), kind, target, dense == nil, sparse == nil)
						}
						continue
					}
					checked++
					if len(dense) != len(sparse) {
						t.Fatalf("%s/%v target %d: candidate domains differ: %d vs %d",
							u.Name(), kind, target, len(dense), len(sparse))
					}
					for node, dp := range dense {
						sp, ok := sparse[node]
						if !ok {
							t.Fatalf("%s/%v target %d: node %d missing from sparse domain", u.Name(), kind, target, node)
						}
						tol := 0.0
						if !exact {
							tol = 1e-12 * (dp + 1)
						}
						if math.Abs(sp-dp) > tol {
							t.Fatalf("%s/%v (directed=%v) target %d node %d: sparse p=%v dense p=%v",
								u.Name(), kind, directed, target, node, sp, dp)
						}
					}
				}
				if checked == 0 {
					t.Fatalf("%s/%v: no serveable targets", u.Name(), kind)
				}
			}
		}
	}
}

// TestSparseServingExpectedAccuracyMatchesDense covers the audit path for
// all utilities and both closed-form mechanisms.
func TestSparseServingExpectedAccuracyMatchesDense(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 17)
		snap := g.Snapshot()
		for _, u := range servingUtilities() {
			rec, err := NewRecommender(g, WithEpsilon(0.5), WithUtility(u), WithSeed(2))
			if err != nil {
				t.Fatal(err)
			}
			sens := u.Sensitivity(snap)
			e := mechanism.Exponential{Epsilon: 0.5, Sensitivity: sens}
			checked := 0
			for target := 0; target < g.NumNodes() && checked < 15; target++ {
				acc, err := rec.ExpectedAccuracy(target)
				if err != nil {
					continue
				}
				checked++
				vec, err := denseVector(u, snap, target)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mechanism.ExpectedAccuracySparse(e, mechanism.SparseVec{Val: vec, N: len(vec)})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(acc-want) > 1e-12 {
					t.Fatalf("%s target %d: sparse accuracy %v vs dense %v", u.Name(), target, acc, want)
				}
				// The ceiling path must agree with the dense bound too.
				ceiling, err := rec.AccuracyCeiling(target)
				if err != nil {
					t.Fatal(err)
				}
				if acc > ceiling+1e-9 {
					t.Fatalf("%s target %d: accuracy %v above ceiling %v", u.Name(), target, acc, ceiling)
				}
			}
			if checked == 0 {
				t.Fatalf("%s: no serveable targets", u.Name())
			}
		}
	}
}

// TestSparseTailMappingBijective: every zero-tail rank must resolve to a
// distinct candidate node outside the support, covering the whole candidate
// domain together with the support.
func TestSparseTailMappingBijective(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 5)
		rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		st := rec.state.Load()
		for target := 0; target < 30; target++ {
			cv, err := rec.vector(st, target)
			if err != nil {
				continue
			}
			want := utility.Candidates(st.snap, target)
			seen := make(map[int]bool, cv.ncand)
			for _, node := range cv.nodes() {
				seen[int(node)] = true
			}
			sc := cv.slice()
			src := source{sc: &sc, cv: cv, ncand: cv.ncand, umax: cv.umax}
			for rank := 0; rank < cv.ncand-cv.len(); rank++ {
				got := src.recommendation(st.snap, target, mechanism.StreamPick{IsTail: true, Tail: rank})
				node, u := got.Node, got.Utility
				if u != 0 {
					t.Fatalf("target %d rank %d: nonzero utility %v", target, rank, u)
				}
				if seen[node] {
					t.Fatalf("target %d rank %d: node %d already covered", target, rank, node)
				}
				seen[node] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("target %d: sparse domain %d nodes, dense %d", target, len(seen), len(want))
			}
			for _, c := range want {
				if !seen[c] {
					t.Fatalf("target %d: candidate %d unreachable from sparse form", target, c)
				}
			}
		}
	}
}

// TestCachedComplementSelectMatchesWalk checks a cache entry's block
// search for zero-tail picks against a brute-force complement and the full
// stream walk, for every rank, on supports of several blocks. The target's
// out-row holds the ID just below each block's first ID whenever that ID
// is free, plus random IDs throughout, so row entries interleave every
// block boundary; the target sits anywhere, including before, inside and
// after the support.
func TestCachedComplementSelectMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		target := rng.Intn(n)
		inSupp := make([]bool, n)
		var supp []int32
		for x := 0; x < n; x++ {
			if x != target && rng.Intn(3) > 0 {
				inSupp[x] = true
				supp = append(supp, int32(x))
			}
		}
		if len(supp) == 0 {
			continue
		}
		inRow := make([]bool, n)
		for x := 0; x < n; x++ {
			free := x != target && !inSupp[x]
			blockEdge := x+1 < n && inSupp[x+1] && slices.Index(supp, int32(x+1))%stream.IDBlock == 0
			if free && (blockEdge || rng.Intn(2) == 0) {
				inRow[x] = true
			}
		}
		var row, want []int32
		for x := 0; x < n; x++ {
			switch {
			case inRow[x]:
				row = append(row, int32(x))
			case x != target && !inSupp[x]:
				want = append(want, int32(x))
			}
		}
		ids, code, val := stream.Encode(stream.NewSlice(supp, make([]float64, len(supp))))
		sc := stream.Slice{IDs: ids, Code: code, Val: val}
		for rank, w := range want {
			if got := cachedComplementSelect(row, &ids, target, rank); got != int(w) {
				t.Fatalf("trial %d (n=%d, target %d, %d support): rank %d block search = %d, want %d",
					trial, n, target, len(supp), rank, got, w)
			}
			if got := streamComplementSelect(row, &sc, target, rank); got != int(w) {
				t.Fatalf("trial %d: rank %d stream walk = %d, want %d", trial, rank, got, w)
			}
		}
	}
}

// TestSparseServingLaplaceGOF: Laplace has no closed form, so the sparse
// serving draw (closed-form tail max) is compared against the dense noisy
// argmax with a seeded two-sample chi-squared, per directedness.
func TestSparseServingLaplaceGOF(t *testing.T) {
	crit := map[int]float64{ // alpha = 1e-3
		2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
	}
	for _, directed := range []bool{false, true} {
		// A sparser graph than the shared fixture keeps the nonzero support
		// small enough for chunky chi-squared cells.
		rng := rand.New(rand.NewSource(23))
		var g *Graph
		var err error
		if directed {
			g, err = gen.DirectedPreferentialAttachment(150, 220, 6, 2.0, rng)
		} else {
			g, err = gen.PowerLawConfiguration(150, 220, 1, 1.2, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecommender(g, WithEpsilon(1), WithMechanism(MechanismLaplace), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		st := rec.state.Load()
		// Pick a target with a small nonzero support so cells stay chunky.
		target := -1
		var cv *cachedVector
		for cand := 0; cand < g.NumNodes(); cand++ {
			v, err := rec.vector(st, cand)
			if err != nil {
				continue
			}
			if v.len() >= 2 && v.len() <= 6 && v.ncand > v.len() {
				target, cv = cand, v
				break
			}
		}
		if target < 0 {
			t.Fatal("no target with a small support found")
		}
		snap := g.Snapshot()
		vec, verr := denseVector(rec.util, snap, target)
		if verr != nil {
			t.Fatal(verr)
		}
		dsc := candidateStream(utility.Candidates(snap, target), vec)
		l := mechanism.Laplace{Epsilon: 1, Sensitivity: st.sens}

		cellOf := func(node int) int {
			for i, id := range cv.nodes() {
				if int(id) == node {
					return i
				}
			}
			return cv.len()
		}
		const trials = 60000
		cells := cv.len() + 1
		dense := make([]int, cells)
		rng = rand.New(rand.NewSource(101))
		for i := 0; i < trials; i++ {
			p, err := l.RecommendStream(dsc, len(vec), rng)
			if err != nil {
				t.Fatal(err)
			}
			dense[cellOf(int(p.Node))]++
		}
		sparse := make([]int, cells)
		rng = rand.New(rand.NewSource(202))
		for i := 0; i < trials; i++ {
			recd, err := rec.RecommendWithRNG(target, rng)
			if err != nil {
				t.Fatal(err)
			}
			sparse[cellOf(recd.Node)]++
		}
		stat := 0.0
		for i := range dense {
			n := float64(dense[i] + sparse[i])
			if n == 0 {
				continue
			}
			d := float64(dense[i] - sparse[i])
			stat += d * d / n
		}
		c, ok := crit[cells-1]
		if !ok {
			t.Fatalf("no critical value for df=%d", cells-1)
		}
		t.Logf("directed=%v target %d: chi-squared %.6f (df=%d)", directed, target, stat, cells-1)
		if stat > c {
			t.Fatalf("directed=%v target %d: sparse Laplace serving diverges from dense: chi-squared %.3f > %.3f\ndense:  %v\nsparse: %v",
				directed, target, stat, c, dense, sparse)
		}
	}
}

// TestSparseServingNoTailBitIdentical pins the exact-draw boundary: with
// the degree utility on a graph without isolated nodes every candidate has
// positive utility (no zero tail), and the sparse serving draw consumes the
// same single uniform as the dense CDF inversion — so fixed seeds reproduce
// the dense pipeline's recommendations node-for-node, cached or not.
func TestSparseServingNoTailBitIdentical(t *testing.T) {
	g := servingTestGraph(t, false, 31) // min degree 1: no isolated nodes
	u := utility.Degree{}
	for _, cacheSize := range []int{0, 256} {
		opts := []Option{WithEpsilon(1), WithUtility(u), WithSeed(8)}
		if cacheSize > 0 {
			opts = append(opts, WithCache(cacheSize))
		}
		rec, err := NewRecommender(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap := g.Snapshot()
		e := mechanism.Exponential{Epsilon: 1, Sensitivity: u.Sensitivity(snap)}
		for target := 0; target < 25; target++ {
			vec, err := denseVector(u, snap, target)
			if err != nil {
				t.Fatal(err)
			}
			dsc := candidateStream(utility.Candidates(snap, target), vec)
			denseRNG := rand.New(rand.NewSource(int64(1000 + target)))
			sparseRNG := rand.New(rand.NewSource(int64(1000 + target)))
			for i := 0; i < 50; i++ {
				p, err := e.RecommendStream(dsc, len(vec), denseRNG)
				if err != nil {
					t.Fatal(err)
				}
				want := int(p.Node)
				got, err := rec.RecommendWithRNG(target, sparseRNG)
				if err != nil {
					t.Fatal(err)
				}
				if got.Node != want {
					t.Fatalf("cache=%d target %d draw %d: sparse node %d, dense node %d",
						cacheSize, target, i, got.Node, want)
				}
			}
		}
	}
}
