package bounds

import (
	"errors"
	"math"
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

func sensitiveTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLawConfiguration(300, 1500, 2, 1.5, distribution.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pickCNTarget(t *testing.T, g *graph.Graph) int {
	t.Helper()
	for r := 0; r < g.NumNodes(); r++ {
		if g.OutDegree(r) >= 3 && len(g.TwoHopNeighborhood(r)) > 0 {
			return r
		}
	}
	t.Fatal("no target")
	return -1
}

func TestSensitiveCeilingAllSensitiveMatchesStandardBound(t *testing.T) {
	g := sensitiveTestGraph(t)
	r := pickCNTarget(t, g)
	const eps = 0.5

	res, err := SensitiveCommonNeighborsCeiling(g, r, eps, AllEdgesSensitive)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded {
		t.Fatal("all-sensitive policy must bound")
	}

	// Compare against the standard pipeline with the §7.1 t.
	vec, err := denseVector(utility.CommonNeighbors{}, g, r)
	if err != nil {
		t.Fatal(err)
	}
	umax := utility.Max(vec)
	tStd := (utility.CommonNeighbors{}).RewireCount(umax, g.OutDegree(r))
	want, err := tightestAccuracyBound(vec, eps, tStd)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != tStd {
		t.Errorf("t = %d, standard %d", res.T, tStd)
	}
	if math.Abs(res.Ceiling-want) > 1e-12 {
		t.Errorf("ceiling %g vs standard %g", res.Ceiling, want)
	}
}

// TestSensitiveCeilingPromotesZeroUtilityOnly: the promoted node must start
// at utility 0. Target 0 has neighbors 1–4; node 5 shares neighbor 1 with
// it (utility 1 = u_max) and node 6 shares none. Both could be wired to
// u_max+1 = 2 more of 0's neighbors, so only the utility rule excludes the
// lower-numbered node 5.
func TestSensitiveCeilingPromotesZeroUtilityOnly(t *testing.T) {
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {5, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := SensitiveCommonNeighborsCeiling(g, 0, 1, AllEdgesSensitive)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded || res.Candidate != 6 || res.T != 2 {
		t.Errorf("got %+v, want candidate 6 bounded at t=2", res)
	}
}

func TestSensitiveCeilingNilPolicyDefaultsToAllSensitive(t *testing.T) {
	g := sensitiveTestGraph(t)
	r := pickCNTarget(t, g)
	a, err := SensitiveCommonNeighborsCeiling(g, r, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SensitiveCommonNeighborsCeiling(g, r, 1, AllEdgesSensitive)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nil policy %+v vs explicit %+v", a, b)
	}
}

// TestSensitiveCeilingAllPublicUnbounded: when no edge is sensitive, the
// lower-bound chain never starts and privacy imposes no ceiling.
func TestSensitiveCeilingAllPublicUnbounded(t *testing.T) {
	g := sensitiveTestGraph(t)
	r := pickCNTarget(t, g)
	res, err := SensitiveCommonNeighborsCeiling(g, r, 0.5, func(u, v int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded {
		t.Errorf("all-public policy should be unbounded, got %+v", res)
	}
	if res.Ceiling != 1 || res.Candidate != -1 {
		t.Errorf("unbounded result malformed: %+v", res)
	}
}

// TestSensitiveCeilingBipartitePolicy models the paper's person-product
// scenario: edges into a "product" node block are sensitive, person-person
// edges are public. Promotions through product intermediaries stay bounded;
// making those products public lifts the ceiling.
func TestSensitiveCeilingBipartitePolicy(t *testing.T) {
	// People 0..3, products 4..7. Person 0 bought products 4 and 5;
	// person 1 bought 4, 5, and 6 — the natural "customers like you"
	// recommendation for 0 is person 1. Product 7 exists but has no buyers
	// yet, so it can serve as the fresh intermediary of the u_max = d_r
	// promotion.
	g := graph.New(8)
	for _, e := range [][2]int{{0, 4}, {0, 5}, {1, 4}, {1, 5}, {1, 6}, {2, 4}, {3, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	isProduct := func(v int) bool { return v >= 4 }
	personProduct := func(u, v int) bool { return isProduct(u) != isProduct(v) }

	// With person-product edges sensitive, the promotion (wiring a person
	// to 0's products) uses sensitive edges: bounded.
	res, err := SensitiveCommonNeighborsCeiling(g, 0, 1, personProduct)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded {
		t.Fatal("person-product promotions are sensitive: should be bounded")
	}
	if res.Ceiling >= 1 {
		t.Errorf("ceiling %g should be below 1", res.Ceiling)
	}

	// Flip the policy: person-person edges sensitive, purchases public.
	// Promotion edges (candidate -> 0's neighbors = products) are then
	// public, so the chain breaks and no ceiling applies.
	personPerson := func(u, v int) bool { return !isProduct(u) && !isProduct(v) }
	res2, err := SensitiveCommonNeighborsCeiling(g, 0, 1, personPerson)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bounded {
		t.Errorf("public purchase edges should lift the ceiling, got %+v", res2)
	}
}

func TestSensitiveCeilingErrors(t *testing.T) {
	g := sensitiveTestGraph(t)
	if _, err := SensitiveCommonNeighborsCeiling(g, -1, 1, nil); !errors.Is(err, ErrParams) {
		t.Error("bad target accepted")
	}
	if _, err := SensitiveCommonNeighborsCeiling(g, 0, 0, nil); !errors.Is(err, ErrParams) {
		t.Error("eps=0 accepted")
	}
	iso := graph.New(3)
	if _, err := SensitiveCommonNeighborsCeiling(iso, 0, 1, nil); !errors.Is(err, ErrNoMax) {
		t.Error("all-zero utility should yield ErrNoMax")
	}
}

// TestSensitiveCeilingMonotoneInPolicy: marking MORE edges sensitive can
// only keep or restore the ceiling (never lift it), since every
// all-sensitive promotion under the smaller policy remains all-sensitive
// under the larger.
func TestSensitiveCeilingMonotoneInPolicy(t *testing.T) {
	g := sensitiveTestGraph(t)
	r := pickCNTarget(t, g)
	half := func(u, v int) bool { return (u+v)%2 == 0 }
	resHalf, err := SensitiveCommonNeighborsCeiling(g, r, 1, half)
	if err != nil {
		t.Fatal(err)
	}
	resAll, err := SensitiveCommonNeighborsCeiling(g, r, 1, AllEdgesSensitive)
	if err != nil {
		t.Fatal(err)
	}
	if resHalf.Bounded && !resAll.Bounded {
		t.Error("widening the sensitive set lost the bound")
	}
	if resHalf.Bounded && resAll.Bounded && resAll.Ceiling > resHalf.Ceiling+1e-12 {
		t.Errorf("all-sensitive ceiling %g above half-sensitive %g", resAll.Ceiling, resHalf.Ceiling)
	}
}
