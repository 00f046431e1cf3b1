package experiment

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/stats"
	"socialrec/internal/utility"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLawConfiguration(400, 2000, 1, 1.5, distribution.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustRun(t *testing.T, g *graph.Graph, cfg Config) []Result {
	t.Helper()
	results, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestRunBasics(t *testing.T) {
	g := testGraph(t)
	results, err := Run(g, Config{
		Name:           "test",
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.5, 1},
		TargetFraction: 0.1,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Name != "test" || r.UtilityName != "common-neighbors" {
			t.Errorf("labels wrong: %+v", r)
		}
		if r.NumNodes != 400 {
			t.Errorf("NumNodes = %d", r.NumNodes)
		}
		if len(r.Targets)+r.Skipped != 40 {
			t.Errorf("targets %d + skipped %d != 40", len(r.Targets), r.Skipped)
		}
		for _, tr := range r.Targets {
			if tr.Exponential < 0 || tr.Exponential > 1 {
				t.Errorf("exponential accuracy %g out of range", tr.Exponential)
			}
			if tr.Bound < 0 || tr.Bound > 1 {
				t.Errorf("bound %g out of range", tr.Bound)
			}
			if !math.IsNaN(tr.Laplace) {
				t.Error("Laplace should be NaN when trials = 0")
			}
			if tr.UMax <= 0 || tr.T < 1 {
				t.Errorf("target diagnostics wrong: %+v", tr)
			}
		}
	}
}

func TestRunMechanismRespectsTheoreticalBound(t *testing.T) {
	g := testGraph(t)
	results, err := Run(g, Config{
		Name:           "bound-check",
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{1},
		TargetFraction: 0.25,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range results[0].Targets {
		if tr.Exponential > tr.Bound+1e-9 {
			t.Errorf("node %d: mechanism %g exceeds ceiling %g", tr.Node, tr.Exponential, tr.Bound)
		}
	}
}

func TestRunLaplaceCloseToExponential(t *testing.T) {
	g := testGraph(t)
	results, err := Run(g, Config{
		Name:           "laplace",
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{1},
		TargetFraction: 0.05,
		MaxTargets:     10,
		LaplaceTrials:  400,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range results[0].Targets {
		if math.IsNaN(tr.Laplace) {
			t.Fatal("Laplace not evaluated")
		}
		if math.Abs(tr.Laplace-tr.Exponential) > 0.15 {
			t.Errorf("node %d: laplace %g vs exponential %g", tr.Node, tr.Laplace, tr.Exponential)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := Run(g, Config{Epsilons: []float64{1}, TargetFraction: 0.1}); !errors.Is(err, ErrConfig) {
		t.Error("nil utility accepted")
	}
	if _, err := Run(g, Config{Utility: utility.CommonNeighbors{}, TargetFraction: 0.1}); !errors.Is(err, ErrConfig) {
		t.Error("no epsilons accepted")
	}
	if _, err := Run(g, Config{Utility: utility.CommonNeighbors{}, Epsilons: []float64{1}, TargetFraction: 2}); !errors.Is(err, ErrConfig) {
		t.Error("fraction > 1 accepted")
	}
	if _, err := Run(g, Config{Utility: utility.CommonNeighbors{}, Epsilons: []float64{-1}, TargetFraction: 0.1}); !errors.Is(err, ErrConfig) {
		t.Error("negative epsilon accepted")
	}
	if _, err := Run(g, Config{Utility: utility.CommonNeighbors{}, Epsilons: []float64{0}, TargetFraction: 0.1}); !errors.Is(err, ErrConfig) {
		t.Error("zero epsilon accepted")
	}
	if _, err := Run(graph.New(0), Config{Utility: utility.CommonNeighbors{}, Epsilons: []float64{1}, TargetFraction: 0.1}); !errors.Is(err, ErrNoNodes) {
		t.Error("empty graph accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	g := testGraph(t)
	cfg := Config{
		Name: "det", Utility: utility.CommonNeighbors{},
		Epsilons: []float64{1}, TargetFraction: 0.05, LaplaceTrials: 100, Seed: 11,
	}
	r1, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1[0].Targets) != len(r2[0].Targets) {
		t.Fatal("target counts differ")
	}
	for i := range r1[0].Targets {
		a, b := r1[0].Targets[i], r2[0].Targets[i]
		if a.Node != b.Node || a.Exponential != b.Exponential || a.Laplace != b.Laplace {
			t.Fatalf("run not deterministic at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestRunScheduleIndependent: each target's Laplace trials draw from their
// own RNG, so the worker pool's schedule cannot change any result.
func TestRunScheduleIndependent(t *testing.T) {
	g := testGraph(t)
	cfg := Config{
		Name: "sched", Utility: utility.CommonNeighbors{},
		Epsilons: []float64{0.5, 1}, TargetFraction: 0.1, LaplaceTrials: 100, Seed: 13,
	}
	parallel := mustRun(t, g, cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := mustRun(t, g, cfg)
	if !reflect.DeepEqual(parallel, serial) {
		t.Errorf("results differ between GOMAXPROCS=%d and GOMAXPROCS=1", runtime.NumCPU())
	}
}

func TestSampleTargets(t *testing.T) {
	rng := distribution.NewRNG(2)
	ts := SampleTargets(100, 0.1, 0, rng)
	if len(ts) != 10 {
		t.Errorf("got %d targets", len(ts))
	}
	seen := map[int]bool{}
	for _, x := range ts {
		if x < 0 || x >= 100 || seen[x] {
			t.Errorf("bad target %d", x)
		}
		seen[x] = true
	}
	if got := SampleTargets(100, 0.5, 7, rng); len(got) != 7 {
		t.Errorf("cap ignored: %d", len(got))
	}
	if got := SampleTargets(3, 0.0001, 0, rng); len(got) != 1 {
		t.Errorf("minimum of one target: %d", len(got))
	}
	if got := SampleTargets(5, 1, 0, rng); len(got) != 5 {
		t.Errorf("full fraction: %d", len(got))
	}
}

func TestResultCDFAndSeries(t *testing.T) {
	r := Result{
		Targets: []TargetResult{
			{Degree: 2, Exponential: 0.1, Laplace: math.NaN(), Bound: 0.2},
			{Degree: 3, Exponential: 0.9, Laplace: 0.85, Bound: 0.95},
			{Degree: 30, Exponential: 0.5, Laplace: 0.48, Bound: 0.6},
		},
	}
	exp := r.Accuracies(SeriesExponential)
	if len(exp) != 3 {
		t.Errorf("exp series %v", exp)
	}
	lap := r.Accuracies(SeriesLaplace)
	if len(lap) != 2 {
		t.Errorf("NaN should be dropped: %v", lap)
	}
	cdf := r.CDF(SeriesExponential)
	if len(cdf) != 11 {
		t.Errorf("cdf grid size %d", len(cdf))
	}
	if cdf[1].Fraction != 1.0/3 { // accuracy <= 0.1 holds for the first entry
		t.Errorf("cdf[0.1] = %g", cdf[1].Fraction)
	}
	// LogBucket(2) = LogBucket(3) = 2 and LogBucket(30) = 20: two buckets.
	ds := r.DegreeSeries(SeriesExponential)
	if len(ds) != 2 {
		t.Fatalf("degree series %v", ds)
	}
	if ds[0].Key != 2 || ds[0].Count != 2 || math.Abs(ds[0].Mean-0.5) > 1e-12 {
		t.Errorf("bucket 2 = %+v", ds[0])
	}
	if ds[1].Key != 20 || ds[1].Mean != 0.5 {
		t.Errorf("bucket 20 = %+v", ds[1])
	}
}

func TestSeriesString(t *testing.T) {
	if SeriesExponential.String() != "Exponential" || SeriesBound.String() != "Theor. Bound" {
		t.Error("series names wrong")
	}
	if Series(99).String() != "Series(99)" {
		t.Error("unknown series name wrong")
	}
}

func TestWriteCDFTable(t *testing.T) {
	var buf bytes.Buffer
	curves := []NamedCDF{
		{Label: "Exp eps=1", Points: []stats.CDFPoint{{X: 0, Fraction: 0}, {X: 1, Fraction: 1}}},
	}
	if err := WriteCDFTable(&buf, "Figure T", curves); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure T") || !strings.Contains(out, "Exp eps=1") {
		t.Errorf("table output missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Errorf("percent formatting missing:\n%s", out)
	}
}

func TestSummaryMentionsThresholds(t *testing.T) {
	g := testGraph(t)
	results, err := Run(g, Config{
		Name: "sum", Utility: utility.CommonNeighbors{},
		Epsilons: []float64{0.5}, TargetFraction: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := results[0].Summary()
	for _, want := range []string{"sum / common-neighbors / eps=0.5", "accuracy <= 0.5", "bound"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
