package socialrec

// Integration tests across module boundaries: the public API's privacy
// guarantee verified by exhaustive neighbor enumeration (internal/dpcheck),
// and the full pipeline from graph file to recommendation.

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/distribution"
	"socialrec/internal/dpcheck"
	"socialrec/internal/gen"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

// TestPublicAPIPrivacyEndToEnd verifies that the exact configuration the
// public Recommender uses (utility sensitivity + exponential mechanism) is
// ε-differentially private by enumerating every edge-neighboring graph of a
// small instance.
func TestPublicAPIPrivacyEndToEnd(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(13, 26, distribution.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1} {
		for _, u := range []UtilityFunction{CommonNeighbors(), WeightedPaths(0.05), DegreeUtility(), utility.Jaccard{}} {
			rec, err := NewRecommender(g, WithEpsilon(eps), WithUtility(u))
			if err != nil {
				t.Fatal(err)
			}
			factory := func(sens float64) mechanism.SparseDistribution {
				// The check derives the worst-case Δf itself; assert the
				// Recommender's configured Δf is at least the base graph's.
				if rec.Sensitivity() < u.Sensitivity(g)-1e-9 {
					t.Fatalf("recommender sensitivity %g below utility's %g", rec.Sensitivity(), u.Sensitivity(g))
				}
				return mechanism.Exponential{Epsilon: eps, Sensitivity: sens}
			}
			rep, err := dpcheck.Check(g, u, factory, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Satisfies(eps) {
				t.Errorf("%s eps=%g: ratio %g breaks DP", u.Name(), eps, rep.MaxRatio)
			}
		}
	}
}

// TestFileToRecommendationPipeline drives the full path a deployment
// takes: generate graph -> write file -> read file -> recommend -> audit.
func TestFileToRecommendationPipeline(t *testing.T) {
	g, err := GenerateSocialGraph(300, 2400, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "social.txt.gz")
	if err := dataset.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadGraphFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(g) {
		t.Fatal("file round trip changed graph")
	}
	rec, err := NewRecommender(loaded, WithEpsilon(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for target := 0; target < loaded.NumNodes() && served < 20; target++ {
		s, err := rec.Recommend(target)
		if errors.Is(err, ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Node == target || loaded.HasEdge(target, s.Node) {
			t.Errorf("bad recommendation %+v", s)
		}
		ceiling, err := rec.AccuracyCeiling(target)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := rec.ExpectedAccuracy(target)
		if err != nil {
			t.Fatal(err)
		}
		if acc > ceiling+1e-9 {
			t.Errorf("node %d: accuracy %g above ceiling %g", target, acc, ceiling)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no targets served")
	}
}

// TestPaperHeadlineThroughPublicAPI asserts the paper's abstract claim on
// a realistic graph through the public API alone: "good private social
// recommendations are feasible only for a small subset of the users ... or
// for a lenient setting of privacy parameters."
func TestPaperHeadlineThroughPublicAPI(t *testing.T) {
	g, err := GenerateSocialGraph(2000, 16000, 31)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	good, total := 0, 0
	for target := 0; target < g.NumNodes() && total < 300; target++ {
		acc, err := rec.ExpectedAccuracy(target)
		if errors.Is(err, ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		total++
		if acc >= 0.9 {
			good++
		}
	}
	if total < 100 {
		t.Fatalf("only %d targets evaluated", total)
	}
	frac := float64(good) / float64(total)
	if frac > 0.5 {
		t.Errorf("%.0f%% of users get great private recommendations at eps=0.5 — contradicts the paper", 100*frac)
	}
	t.Logf("eps=0.5: %.1f%% of %d users reach accuracy >= 0.9", 100*frac, total)
}

// TestUtilityViewsAgreeUnderPublicAPI cross-checks that the Recommender's
// CSR-backed evaluation matches a direct computation on the mutable graph.
func TestUtilityViewsAgreeUnderPublicAPI(t *testing.T) {
	g, err := GenerateSocialGraph(150, 900, 14)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	cn := utility.CommonNeighbors{}
	for target := 0; target < 30; target++ {
		acc, err := rec.ExpectedAccuracy(target)
		if errors.Is(err, ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		vec, err := denseVector(cn, g, target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mechanism.ExpectedAccuracySparse(mechanism.Exponential{Epsilon: 1, Sensitivity: 2}, mechanism.SparseVec{Val: vec, N: len(vec)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(acc-want) > 1e-12 {
			t.Errorf("node %d: API %g vs direct %g", target, acc, want)
		}
	}
}
