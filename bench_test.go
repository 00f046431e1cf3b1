package socialrec

// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation (§4.2 worked example, Figures 1(a)-2(c), the Laplace-vs-
// Exponential comparison of §7.2, the Lemma 3 closed form of Appendix E,
// the smoothing mechanism of Appendix F, and the Theorem 1-3 ε floors),
// plus ablations (the ε sweep by degree class, path-length truncation, CSR
// snapshots, Laplace trial counts) and serving benches. The figure benches
// run the full experiment pipeline at a reduced scale and report the
// headline fraction the paper quotes as a custom metric; `go run
// ./cmd/recbench` prints the full rows/series.

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"socialrec/internal/bounds"
	"socialrec/internal/distribution"
	"socialrec/internal/experiment"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stats"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

// benchOpts is the reduced-scale configuration figure benches share: large
// enough that the paper's shapes appear, small enough for -bench runs.
var benchOpts = experiment.SuiteOptions{Scale: 10, MaxTargets: 60, Seed: 1}

var (
	benchGraphsOnce sync.Once
	benchWiki       *graph.Graph
	benchTwitter    *graph.Graph
)

func benchGraphs(b *testing.B) (*graph.Graph, *graph.Graph) {
	b.Helper()
	benchGraphsOnce.Do(func() {
		wv, err := benchOpts.LoadDataset("wiki-vote")
		if err != nil {
			b.Fatal(err)
		}
		tw, err := benchOpts.LoadDataset("twitter")
		if err != nil {
			b.Fatal(err)
		}
		benchWiki = wv.Graph
		benchTwitter = tw.Graph
	})
	return benchWiki, benchTwitter
}

func runFigureBench(b *testing.B, id string) []experiment.Result {
	b.Helper()
	wiki, twitter := benchGraphs(b)
	spec, err := experiment.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	g := wiki
	if spec.Dataset == "twitter" {
		g = twitter
	}
	var results []experiment.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err = experiment.RunFigure(g, spec, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return results
}

// fractionBelow reports the paper's y-axis value: the fraction of targets
// whose accuracy under the series is <= threshold.
func fractionBelow(r experiment.Result, s experiment.Series, threshold float64) float64 {
	return stats.FractionLE(r.Accuracies(s), threshold)
}

// BenchmarkFigure1a regenerates Figure 1(a): accuracy CDF on the Wiki-Vote
// graph under common neighbors at ε ∈ {0.5, 1}.
func BenchmarkFigure1a(b *testing.B) {
	results := runFigureBench(b, "1a")
	// Reported metric mirrors the paper's quote "for ε=0.5 the Exponential
	// mechanism achieves less than 0.1 accuracy for 60% of the nodes".
	b.ReportMetric(100*fractionBelow(results[0], experiment.SeriesExponential, 0.1), "%nodes_exp_acc<=0.1_eps0.5")
	b.ReportMetric(100*fractionBelow(results[1], experiment.SeriesExponential, 0.6), "%nodes_exp_acc<=0.6_eps1")
}

// BenchmarkFigure1b regenerates Figure 1(b): Twitter graph, common
// neighbors, ε ∈ {1, 3}.
func BenchmarkFigure1b(b *testing.B) {
	results := runFigureBench(b, "1b")
	// Paper: "for ε=1, 98% of nodes receive accuracy less than 0.01".
	b.ReportMetric(100*fractionBelow(results[0], experiment.SeriesExponential, 0.01), "%nodes_exp_acc<=0.01_eps1")
	b.ReportMetric(100*fractionBelow(results[1], experiment.SeriesExponential, 0.1), "%nodes_exp_acc<=0.1_eps3")
}

// BenchmarkFigure2a regenerates Figure 2(a): Wiki-Vote, weighted paths,
// γ ∈ {0.0005, 0.05}, ε=1.
func BenchmarkFigure2a(b *testing.B) {
	results := runFigureBench(b, "2a")
	// Paper: "more than 60% of the nodes receive accuracy less than 0.3"
	// (γ=0.0005).
	b.ReportMetric(100*fractionBelow(results[0], experiment.SeriesExponential, 0.3), "%nodes_exp_acc<=0.3_gamma0.0005")
	b.ReportMetric(100*fractionBelow(results[1], experiment.SeriesExponential, 0.3), "%nodes_exp_acc<=0.3_gamma0.05")
}

// BenchmarkFigure2b regenerates Figure 2(b): Twitter, weighted paths, ε=1.
func BenchmarkFigure2b(b *testing.B) {
	results := runFigureBench(b, "2b")
	// Paper: "more than 98% of nodes receive recommendations with accuracy
	// less than 0.01".
	b.ReportMetric(100*fractionBelow(results[0], experiment.SeriesExponential, 0.01), "%nodes_exp_acc<=0.01_gamma0.0005")
}

// BenchmarkFigure2c regenerates Figure 2(c): degree vs accuracy on
// Wiki-Vote at ε=0.5, reporting the low-degree/high-degree accuracy gap.
func BenchmarkFigure2c(b *testing.B) {
	results := runFigureBench(b, "2c")
	pts := results[0].DegreeSeries(experiment.SeriesExponential)
	if len(pts) > 1 {
		b.ReportMetric(pts[0].Mean, "acc_lowest_degree_bucket")
		b.ReportMetric(pts[len(pts)-1].Mean, "acc_highest_degree_bucket")
	}
}

// BenchmarkFigureSec42Example evaluates the §4.2 worked example: the
// Corollary 1 ceiling for n=4·10⁸, k=100, c=0.99, t=150, ε=0.1 (paper:
// ≈0.46).
func BenchmarkFigureSec42Example(b *testing.B) {
	var bound float64
	for i := 0; i < b.N; i++ {
		var err error
		bound, err = bounds.Corollary1Accuracy(4e8, 100, 0.99, 0.1, 150)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bound, "accuracy_ceiling")
}

// BenchmarkTableLaplaceVsExponential reproduces the §7.2 "Exponential vs
// Laplace" comparison: mean absolute accuracy gap between the two
// mechanisms across sampled targets (paper: "nearly identical").
func BenchmarkTableLaplaceVsExponential(b *testing.B) {
	wiki, _ := benchGraphs(b)
	cfg := experiment.Config{
		Name: "wiki", Utility: utility.CommonNeighbors{},
		Epsilons: []float64{1}, TargetFraction: 0.02, MaxTargets: 20,
		LaplaceTrials: mechanism.DefaultLaplaceTrials, Seed: 1,
	}
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.Run(wiki, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, tr := range results[0].Targets {
			if !math.IsNaN(tr.Laplace) {
				sum += math.Abs(tr.Laplace - tr.Exponential)
				n++
			}
		}
		if n > 0 {
			gap = sum / float64(n)
		}
	}
	b.ReportMetric(gap, "mean_abs_accuracy_gap")
}

// BenchmarkTableLemma3 evaluates the Appendix E closed form for the Laplace
// mechanism's n=2 win probability against the Exponential mechanism's.
func BenchmarkTableLemma3(b *testing.B) {
	u := []float64{3, 1}
	exp := mechanism.Exponential{Epsilon: 1, Sensitivity: 1}
	var lp float64
	var ep []float64
	for i := 0; i < b.N; i++ {
		lp = distribution.Lemma3WinProbability(u[0], u[1], 1)
		var err error
		ep, _, err = exp.ProbabilitiesSparse(mechanism.SparseVec{Val: u, N: len(u)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lp, "laplace_p1")
	b.ReportMetric(ep[0], "exponential_p1")
}

// BenchmarkTableSmoothing sweeps the Appendix F mechanism A_S(x): accuracy
// (= x for a Best base on a one-winner vector, Theorem 5's floor) against
// the ε each x buys on an n-candidate domain.
func BenchmarkTableSmoothing(b *testing.B) {
	u := make([]float64, 1000)
	u[7] = 5
	var acc, eps float64
	for i := 0; i < b.N; i++ {
		for _, x := range []float64{0.1, 0.5, 0.9} {
			s := mechanism.Smoothing{X: x, Base: mechanism.Best{}}
			a, err := mechanism.ExpectedAccuracySparse(s, mechanism.SparseVec{Val: u, N: len(u)})
			if err != nil {
				b.Fatal(err)
			}
			acc, eps = a, s.Epsilon(len(u))
		}
	}
	b.ReportMetric(acc, "accuracy_at_x0.9")
	b.ReportMetric(eps, "epsilon_at_x0.9")
}

// BenchmarkTableEpsilonFloor evaluates the Theorem 1-3 privacy floors
// across degrees on the Wiki-Vote-like graph.
func BenchmarkTableEpsilonFloor(b *testing.B) {
	wiki, _ := benchGraphs(b)
	n := wiki.NumNodes()
	dmax := wiki.MaxDegree()
	var t2, t3, t1 float64
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = bounds.Theorem1Epsilon(n, dmax)
		if err != nil {
			b.Fatal(err)
		}
		t2, err = bounds.Theorem2Epsilon(n, 10)
		if err != nil {
			b.Fatal(err)
		}
		t3, err = bounds.Theorem3Epsilon(n, 10, dmax, 0.0005)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t1, "thm1_generic_floor")
	b.ReportMetric(t2, "thm2_cn_floor_deg10")
	b.ReportMetric(t3, "thm3_wp_floor_deg10")
}

// BenchmarkTableEpsilonSweep runs the ε-sweep ablation (accuracy and
// ceiling vs ε per degree class) and reports the leaf-class crossover gap.
func BenchmarkTableEpsilonSweep(b *testing.B) {
	wiki, _ := benchGraphs(b)
	var leafAtHalf, hubAtHalf float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.Run(wiki, experiment.Config{
			Utility:        utility.CommonNeighbors{},
			Epsilons:       []float64{0.5},
			TargetFraction: 0.2,
			MaxTargets:     80,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range experiment.Sweep(results, experiment.DefaultDegreeClasses()) {
			switch p.Class {
			case "leaf (1-3)":
				leafAtHalf = p.MeanCeiling
			case "hub (51+)":
				hubAtHalf = p.MeanCeiling
			}
		}
	}
	b.ReportMetric(leafAtHalf, "leaf_ceiling_eps0.5")
	b.ReportMetric(hubAtHalf, "hub_ceiling_eps0.5")
}

// BenchmarkAblationPathLen compares the weighted-paths utility at the
// paper's length-3 truncation against length-2 (pure common neighbors
// rescaling) and length-4, measuring the sparse utility kernel's cost.
func BenchmarkAblationPathLen(b *testing.B) {
	wiki, _ := benchGraphs(b)
	snap := wiki.Snapshot()
	for _, maxLen := range []int{2, 3, 4} {
		maxLen := maxLen
		b.Run(map[int]string{2: "len2", 3: "len3", 4: "len4"}[maxLen], func(b *testing.B) {
			u := utility.WeightedPaths{Gamma: 0.005, MaxLen: maxLen}
			for i := 0; i < b.N; i++ {
				if _, _, err := u.Sparse(snap, i%snap.NumNodes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCSR compares the sparse utility kernel on the mutable
// map-adjacency graph against the immutable CSR snapshot — the
// representation ablation DESIGN.md calls out.
func BenchmarkAblationCSR(b *testing.B) {
	wiki, _ := benchGraphs(b)
	snap := wiki.Snapshot()
	cn := utility.CommonNeighbors{}
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cn.Sparse(wiki, i%wiki.NumNodes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cn.Sparse(snap, i%snap.NumNodes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLaplaceTrials measures Monte-Carlo convergence of the
// Laplace accuracy estimate: the gap to the exponential closed form at 100
// vs the paper's 1,000 trials.
func BenchmarkAblationLaplaceTrials(b *testing.B) {
	u := []float64{0, 0, 0, 1, 2, 5}
	lap := mechanism.Laplace{Epsilon: 1, Sensitivity: 2}
	exp := mechanism.Exponential{Epsilon: 1, Sensitivity: 2}
	want, err := mechanism.ExpectedAccuracySparse(exp, mechanism.SparseVec{Val: u, N: len(u)})
	if err != nil {
		b.Fatal(err)
	}
	sc := stream.NewSlice([]int32{0, 1, 2, 3, 4, 5}, u)
	for _, trials := range []int{100, 1000} {
		trials := trials
		b.Run(map[int]string{100: "trials100", 1000: "trials1000"}[trials], func(b *testing.B) {
			rng := distribution.NewRNG(1)
			var gap float64
			for i := 0; i < b.N; i++ {
				got, err := mechanism.MonteCarloAccuracyStream(lap, sc, len(u), trials, rng)
				if err != nil {
					b.Fatal(err)
				}
				gap = math.Abs(got - want)
			}
			b.ReportMetric(gap, "abs_gap_to_closed_form")
		})
	}
}

// BenchmarkRecommend measures the end-to-end public API cost of one private
// recommendation on the Wiki-Vote-like graph.
func BenchmarkRecommend(b *testing.B) {
	wiki, _ := benchGraphs(b)
	rec, err := NewRecommender(wiki, WithEpsilon(1), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := distribution.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := i % wiki.NumNodes()
		_, err := rec.RecommendWithRNG(target, rng)
		if err != nil && !errors.Is(err, ErrNoCandidates) {
			b.Fatal(err)
		}
	}
}

// serveTargets is the repeated-target workload of the serving benches: a
// production frontend re-requests a bounded working set of users, so the
// cache's steady state is all hits.
func serveTargets(n int) []int {
	targets := make([]int, 64)
	for i := range targets {
		targets[i] = i % n
	}
	return targets
}

// BenchmarkRecommendCached measures repeated-target serving with the
// utility-vector cache against the uncached seed path — the headline
// speedup of the serving engine.
func BenchmarkRecommendCached(b *testing.B) {
	wiki, _ := benchGraphs(b)
	targets := serveTargets(wiki.NumNodes())
	for _, cached := range []bool{false, true} {
		name := "uncached"
		opts := []Option{WithEpsilon(1), WithSeed(1)}
		if cached {
			name = "cached"
			opts = append(opts, WithCache(DefaultCacheSize))
		}
		b.Run(name, func(b *testing.B) {
			rec, err := NewRecommender(wiki, opts...)
			if err != nil {
				b.Fatal(err)
			}
			rng := distribution.NewRNG(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := rec.RecommendWithRNG(targets[i%len(targets)], rng)
				if err != nil && !errors.Is(err, ErrNoCandidates) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopK measures cached top-k serving across mechanisms (k=5); the
// non-private arm isolates the bounded-heap selection.
func BenchmarkTopK(b *testing.B) {
	wiki, _ := benchGraphs(b)
	targets := serveTargets(wiki.NumNodes())
	for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone} {
		b.Run(kind.String(), func(b *testing.B) {
			rec, err := NewRecommender(wiki, WithEpsilon(1), WithSeed(1),
				WithMechanism(kind), WithCache(DefaultCacheSize))
			if err != nil {
				b.Fatal(err)
			}
			rng := distribution.NewRNG(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := rec.RecommendTopKWithRNG(targets[i%len(targets)], 5, rng)
				if err != nil && !errors.Is(err, ErrNoCandidates) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveChurn reproduces the cache layer of a live serving mix
// without HTTP: on a Wiki-Vote-like graph with the cache, live mutations
// and delta invalidation on, each op is nine reads over Zipf(1.2)-ranked
// targets (highest degree first) plus one edge insert, and every 20 inserts
// are folded into a new snapshot by Rebuild.
func BenchmarkLiveChurn(b *testing.B) {
	const (
		readsPerWrite = 9
		rebuildEvery  = 20
	)
	g, err := gen.WikiVoteLike(distribution.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.SliceStable(byDegree, func(i, j int) bool { return g.Degree(byDegree[i]) > g.Degree(byDegree[j]) })
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(1),
		WithCache(DefaultCacheSize),
		WithRebuildInterval(time.Hour), // only explicit Rebuild swaps
		WithMaxPendingDeltas(1<<30),
		WithDeltaInvalidation())
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	rng := distribution.NewRNG(2)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	writes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < readsPerWrite; j++ {
			_, err := rec.RecommendWithRNG(byDegree[zipf.Uint64()], rng)
			if err != nil && !errors.Is(err, ErrNoCandidates) {
				b.Fatal(err)
			}
		}
		u, v := rng.Intn(n), rng.Intn(n-1)
		if v >= u {
			v++
		}
		if err := rec.AddEdge(u, v); err != nil {
			if !errors.Is(err, ErrDuplicateEdge) {
				b.Fatal(err)
			}
			continue
		}
		if writes++; writes%rebuildEvery == 0 {
			if err := rec.Rebuild(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
