package socialrec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/distribution"
)

// demoGraph builds a small friendship graph where node 0's obvious
// suggestion is node 3 (two common neighbors through 1 and 2).
func demoGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewRecommenderDefaults(t *testing.T) {
	r, err := NewRecommender(demoGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Epsilon() != 1 || r.Mechanism() != MechanismExponential {
		t.Errorf("defaults wrong: eps=%g mech=%v", r.Epsilon(), r.Mechanism())
	}
	if r.Utility().Name() != "common-neighbors" {
		t.Errorf("default utility %q", r.Utility().Name())
	}
	if r.Sensitivity() != 2 {
		t.Errorf("sensitivity = %g", r.Sensitivity())
	}
}

func TestNewRecommenderNilGraph(t *testing.T) {
	if _, err := NewRecommender(nil); !errors.Is(err, ErrNilGraph) {
		t.Errorf("want ErrNilGraph, got %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	g := demoGraph(t)
	if _, err := NewRecommender(g, WithEpsilon(0)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewRecommender(g, WithEpsilon(-1)); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := NewRecommender(g, WithUtility(nil)); err == nil {
		t.Error("nil utility accepted")
	}
	if _, err := NewRecommender(g, WithMechanism(MechanismKind(42))); err == nil {
		t.Error("bogus mechanism accepted")
	}
}

func TestNonPrivateRecommendsBest(t *testing.T) {
	r, err := NewRecommender(demoGraph(t), NonPrivate(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Node != 3 {
		t.Errorf("best suggestion for 0 is 3, got %d", rec.Node)
	}
	if rec.Utility != 2 || rec.MaxUtility != 2 {
		t.Errorf("utilities: %+v", rec)
	}
	acc, err := r.ExpectedAccuracy(0)
	if err != nil || math.Abs(acc-1) > 1e-12 {
		t.Errorf("non-private accuracy = %g, %v", acc, err)
	}
}

func TestRecommendDeterministicPerSeed(t *testing.T) {
	g := demoGraph(t)
	r1, err := NewRecommender(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRecommender(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r1.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed different recommendations: %+v vs %+v", a, b)
	}
}

func TestRecommendErrors(t *testing.T) {
	r, err := NewRecommender(demoGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recommend(99); !errors.Is(err, ErrBadTarget) {
		t.Errorf("want ErrBadTarget, got %v", err)
	}
	// A node connected to everything reachable has no candidates.
	iso := NewGraph(2)
	if err := iso.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRecommender(iso)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Recommend(0); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

func TestAllMechanismsRecommend(t *testing.T) {
	g := demoGraph(t)
	for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone} {
		r, err := NewRecommender(g, WithMechanism(kind), WithSeed(9))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rec, err := r.Recommend(0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rec.Node == 0 || rec.Node == 1 || rec.Node == 2 {
			t.Errorf("%v recommended target or existing neighbor: %+v", kind, rec)
		}
		acc, err := r.ExpectedAccuracy(0)
		if err != nil {
			t.Fatalf("%v accuracy: %v", kind, err)
		}
		if acc < 0 || acc > 1 {
			t.Errorf("%v accuracy %g out of range", kind, acc)
		}
	}
}

func TestAccuracyCeilingDominatesMechanism(t *testing.T) {
	g, err := GenerateSocialGraph(300, 1500, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecommender(g, WithEpsilon(0.5), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for target := 0; target < g.NumNodes() && checked < 25; target++ {
		ceiling, err := r.AccuracyCeiling(target)
		if errors.Is(err, ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		acc, err := r.ExpectedAccuracy(target)
		if err != nil {
			t.Fatal(err)
		}
		if acc > ceiling+1e-9 {
			t.Errorf("node %d: accuracy %g above ceiling %g", target, acc, ceiling)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no targets checked")
	}
}

func TestEpsilonFloors(t *testing.T) {
	g, err := GenerateSocialGraph(500, 2500, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecommender(g)
	if err != nil {
		t.Fatal(err)
	}
	// Common neighbors: floor = ln n/(d+2); lower degree, higher floor.
	lo := r.EpsilonFloor(50)
	hi := r.EpsilonFloor(3)
	if !(hi > lo) || lo <= 0 {
		t.Errorf("floors: deg3 %g, deg50 %g", hi, lo)
	}
	if g := r.GenericEpsilonFloor(); !(g > 0) {
		t.Errorf("generic floor %g", g)
	}

	rw, err := NewRecommender(g, WithUtility(WeightedPaths(0.0005)))
	if err != nil {
		t.Fatal(err)
	}
	if f := rw.EpsilonFloor(3); !(f > 0) {
		t.Errorf("weighted-paths floor %g", f)
	}

	rd, err := NewRecommender(g, WithUtility(DegreeUtility()))
	if err != nil {
		t.Fatal(err)
	}
	if f := rd.EpsilonFloor(3); !math.IsNaN(f) {
		t.Errorf("degree utility has no specific theorem, want NaN, got %g", f)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := demoGraph(t)
	r, err := NewRecommender(g, NonPrivate())
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the graph after construction must not change results.
	before, err := r.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	after, err := r.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("snapshot leaked mutation: %+v vs %+v", before, after)
	}
}

func TestRecommendWithRNG(t *testing.T) {
	r, err := NewRecommender(demoGraph(t), WithEpsilon(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := distribution.NewRNG(77)
	rec, err := r.RecommendWithRNG(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Target != 0 {
		t.Errorf("target = %d", rec.Target)
	}
}

func TestMechanismKindString(t *testing.T) {
	cases := map[MechanismKind]string{
		MechanismExponential: "exponential",
		MechanismLaplace:     "laplace",
		MechanismSmoothing:   "smoothing",
		MechanismNone:        "none",
		MechanismKind(9):     "MechanismKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g, err := GenerateSocialGraph(50, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, _, err := dataset.Read(&buf, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Error("round trip changed graph")
	}
}

func TestReadGraphParsesEdgeList(t *testing.T) {
	g, _, err := dataset.Read(strings.NewReader("# c\n0 1\n1 2\n"), dataset.Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumEdges() != 2 {
		t.Errorf("parsed graph wrong: %v", g)
	}
}

func TestGenerateFollowerGraph(t *testing.T) {
	g, err := GenerateFollowerGraph(200, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumNodes() != 200 {
		t.Errorf("follower graph wrong: %v", g)
	}
	// Deterministic.
	g2, err := GenerateFollowerGraph(200, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Error("not deterministic")
	}
}

// TestPrivacyAccuracyTradeoffEndToEnd exercises the paper's headline
// finding through the public API: accuracy ceilings collapse for low-degree
// targets at strict ε and recover at lenient ε.
func TestPrivacyAccuracyTradeoffEndToEnd(t *testing.T) {
	g, err := GenerateSocialGraph(1000, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewRecommender(g, WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := NewRecommender(g, WithEpsilon(3))
	if err != nil {
		t.Fatal(err)
	}
	var strictSum, lenientSum float64
	n := 0
	for target := 0; target < g.NumNodes() && n < 50; target++ {
		s, err := strict.AccuracyCeiling(target)
		if errors.Is(err, ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		l, err := lenient.AccuracyCeiling(target)
		if err != nil {
			t.Fatal(err)
		}
		if s > l+1e-9 {
			t.Errorf("node %d: strict ceiling %g above lenient %g", target, s, l)
		}
		strictSum += s
		lenientSum += l
		n++
	}
	if n == 0 {
		t.Fatal("no targets")
	}
	if strictSum/float64(n) > 0.5*lenientSum/float64(n)+0.2 {
		t.Logf("strict mean %g, lenient mean %g", strictSum/float64(n), lenientSum/float64(n))
	}
	if !(strictSum < lenientSum) {
		t.Errorf("strict privacy should cost accuracy: %g vs %g", strictSum, lenientSum)
	}
}
