package utility

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socialrec/internal/graph"
)

// kite fixture (undirected):
//
//	0-1, 0-2, 1-2, 1-3, 2-3, 3-4
func kite(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, directed bool, density float64) *graph.Graph {
	var g *graph.Graph
	if directed {
		g = graph.NewDirected(n)
	} else {
		g = graph.New(n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if rng.Float64() < density {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestCommonNeighborsVector(t *testing.T) {
	g := kite(t)
	vec, err := denseVector(CommonNeighbors{}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// N(0) = {1,2}; candidates are 3 and 4 (1, 2 masked as existing).
	// C(3,0) = |{1,2} ∩ {1,2,4}| = 2; C(4,0) = |{3} ∩ {1,2}| = 0.
	want := []float64{0, 0, 0, 2, 0}
	for i := range want {
		if vec[i] != want[i] {
			t.Errorf("vec[%d] = %g, want %g", i, vec[i], want[i])
		}
	}
}

func TestCommonNeighborsVectorOnCSR(t *testing.T) {
	g := kite(t)
	gv, err := denseVector(CommonNeighbors{}, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := denseVector(CommonNeighbors{}, g.Snapshot(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gv {
		if gv[i] != cv[i] {
			t.Errorf("graph vs CSR mismatch at %d: %g vs %g", i, gv[i], cv[i])
		}
	}
}

func TestCommonNeighborsTargetOutOfRange(t *testing.T) {
	g := kite(t)
	if _, err := denseVector(CommonNeighbors{}, g, 17); !errors.Is(err, ErrTarget) {
		t.Errorf("want ErrTarget, got %v", err)
	}
	if _, err := denseVector(CommonNeighbors{}, g, -1); !errors.Is(err, ErrTarget) {
		t.Errorf("want ErrTarget, got %v", err)
	}
}

func TestCommonNeighborsSensitivity(t *testing.T) {
	if got := (CommonNeighbors{}).Sensitivity(kite(t)); got != 2 {
		t.Errorf("sensitivity = %g, want 2", got)
	}
}

func TestCommonNeighborsRewireCount(t *testing.T) {
	cn := CommonNeighbors{}
	// §7.1: t = umax + 1 + I(umax == dr).
	if got := cn.RewireCount(3, 10); got != 4 {
		t.Errorf("t = %d, want 4", got)
	}
	if got := cn.RewireCount(10, 10); got != 12 {
		t.Errorf("t(umax==dr) = %d, want 12", got)
	}
	if got := cn.RewireCount(0, 5); got != 1 {
		t.Errorf("t(umax=0) = %d, want 1", got)
	}
}

func TestWeightedPathsReducesToCommonNeighborsAsGammaVanishes(t *testing.T) {
	g := kite(t)
	wp := WeightedPaths{Gamma: 1e-12}
	cn := CommonNeighbors{}
	for r := 0; r < g.NumNodes(); r++ {
		wv, err := denseVector(wp, g, r)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := denseVector(cn, g, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if math.Abs(wv[i]-cv[i]) > 1e-6 {
				t.Errorf("r=%d i=%d: weighted %g vs common %g", r, i, wv[i], cv[i])
			}
		}
	}
}

func TestWeightedPathsCountsLength3(t *testing.T) {
	// Path 0-1-2-3: from r=0, candidate 3 has zero common neighbors but one
	// length-3 path, so utility γ.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	const gamma = 0.05
	vec, err := denseVector(WeightedPaths{Gamma: gamma}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec[3]-gamma) > 1e-15 {
		t.Errorf("vec[3] = %g, want %g", vec[3], gamma)
	}
	// Candidate 2: one length-2 path (0-1-2) -> utility 1.
	if math.Abs(vec[2]-1) > 1e-15 {
		t.Errorf("vec[2] = %g, want 1", vec[2])
	}
}

func TestWeightedPathsValidation(t *testing.T) {
	g := kite(t)
	if _, err := denseVector(WeightedPaths{Gamma: 0}, g, 0); err == nil {
		t.Error("gamma=0 accepted")
	}
	if _, err := denseVector(WeightedPaths{Gamma: 1.5}, g, 0); err == nil {
		t.Error("gamma>1 accepted")
	}
	if _, err := denseVector(WeightedPaths{Gamma: 0.5, MaxLen: 1}, g, 0); err == nil {
		t.Error("maxLen=1 accepted")
	}
	if _, err := denseVector(WeightedPaths{Gamma: 0.5}, g, 99); !errors.Is(err, ErrTarget) {
		t.Error("want ErrTarget")
	}
}

func TestWeightedPathsSensitivityGrowsWithGamma(t *testing.T) {
	g := kite(t)
	s1 := WeightedPaths{Gamma: 0.0005}.Sensitivity(g)
	s2 := WeightedPaths{Gamma: 0.05}.Sensitivity(g)
	if !(s2 > s1) {
		t.Errorf("sensitivity should grow with gamma: %g vs %g", s1, s2)
	}
	if s1 < 2 {
		t.Errorf("sensitivity %g below the common-neighbors floor 2", s1)
	}
}

func TestWeightedPathsRewireCount(t *testing.T) {
	wp := WeightedPaths{Gamma: 0.05}
	// §7.1: t = floor(umax) + 2.
	if got := wp.RewireCount(3.7, 10); got != 5 {
		t.Errorf("t = %d, want 5", got)
	}
	if got := wp.RewireCount(0.2, 10); got != 2 {
		t.Errorf("t = %d, want 2", got)
	}
}

func TestWeightedPathsName(t *testing.T) {
	if got := (WeightedPaths{Gamma: 0.05}).Name(); got != "weighted-paths(gamma=0.05,len<=3)" {
		t.Errorf("Name = %q", got)
	}
}

func TestDegreeVector(t *testing.T) {
	g := kite(t)
	vec, err := denseVector(Degree{}, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// N(4) = {3}; candidates 0,1,2 with degrees 2,3,3; node 3 masked.
	want := []float64{2, 3, 3, 0, 0}
	for i := range want {
		if vec[i] != want[i] {
			t.Errorf("vec[%d] = %g, want %g", i, vec[i], want[i])
		}
	}
	if got := (Degree{}).Sensitivity(g); got != 2 {
		t.Errorf("sensitivity = %g", got)
	}
	if got := (Degree{}).RewireCount(5, 3); got != 6 {
		t.Errorf("t = %d", got)
	}
	if _, err := denseVector(Degree{}, g, -2); !errors.Is(err, ErrTarget) {
		t.Error("want ErrTarget")
	}
}

func TestPageRankVectorBasics(t *testing.T) {
	g := kite(t)
	pr := PageRank{}
	vec, err := denseVector(pr, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Mass should be positive for reachable non-neighbors and zero for the
	// target and its neighbor.
	if vec[4] != 0 || vec[3] != 0 {
		t.Errorf("masked entries non-zero: %v", vec)
	}
	for _, i := range []int{0, 1, 2} {
		if vec[i] <= 0 {
			t.Errorf("vec[%d] = %g, want positive", i, vec[i])
		}
	}
	// Nodes 1 and 2 are symmetric from node 4's perspective.
	if math.Abs(vec[1]-vec[2]) > 1e-9 {
		t.Errorf("symmetric nodes differ: %g vs %g", vec[1], vec[2])
	}
}

func TestPageRankDanglingMassRestartsAtRoot(t *testing.T) {
	// Directed chain 0 -> 1 -> 2 where 2 dangles.
	g := graph.NewDirected(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := denseVector(PageRank{}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 (two hops away) must carry positive mass; node 1 is masked.
	if vec[2] <= 0 {
		t.Errorf("vec[2] = %g", vec[2])
	}
	if vec[1] != 0 {
		t.Errorf("vec[1] = %g, want masked 0", vec[1])
	}
}

func TestPageRankValidation(t *testing.T) {
	g := kite(t)
	if _, err := denseVector(PageRank{Alpha: 1.5}, g, 0); err == nil {
		t.Error("alpha>1 accepted")
	}
	if _, err := denseVector(PageRank{}, g, 9); !errors.Is(err, ErrTarget) {
		t.Error("want ErrTarget")
	}
	if got := (PageRank{Alpha: 0.2}).Sensitivity(g); math.Abs(got-8) > 1e-12 {
		t.Errorf("sensitivity = %g, want 2(1-0.2)/0.2 = 8", got)
	}
	if got := (PageRank{}).RewireCount(0.5, 3); got != 8 {
		t.Errorf("t = %d, want 2*(3+1)", got)
	}
}

func TestMaxAndAllZero(t *testing.T) {
	if Max(nil) != 0 || Max([]float64{0, 0}) != 0 {
		t.Error("Max of zeros should be 0")
	}
	if Max([]float64{1, 5, 2}) != 5 {
		t.Error("Max wrong")
	}
}

// TestExchangeabilityAxiom verifies Axiom 1 for every utility function: for
// a random isomorphism h fixing the target, u_{h(i)} on h(G) equals u_i on G.
func TestExchangeabilityAxiom(t *testing.T) {
	funcs := []Function{
		CommonNeighbors{},
		WeightedPaths{Gamma: 0.05},
		Degree{},
		PageRank{Iterations: 80},
	}
	for _, f := range funcs {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			err := quick.Check(func(seed int64, directedFlag bool) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 4 + rng.Intn(8)
				g := randomGraph(rng, n, directedFlag, 0.4)
				r := rng.Intn(n)
				// Random permutation fixing r.
				perm := rng.Perm(n)
				// Swap so that perm[r] == r.
				for i, p := range perm {
					if p == r {
						perm[i], perm[r] = perm[r], perm[i]
						break
					}
				}
				h, err := g.Relabel(perm)
				if err != nil {
					return false
				}
				ug, err := denseVector(f, g, r)
				if err != nil {
					return false
				}
				uh, err := denseVector(f, h, r)
				if err != nil {
					return false
				}
				for i := range ug {
					if math.Abs(ug[i]-uh[perm[i]]) > 1e-9 {
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 40})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSensitivityBoundsEmpirical verifies on random graphs that flipping one
// edge away from the target never changes the utility vector by more than
// the declared Δf in L1, nor any single entry by more than Δf/2.
func TestSensitivityBoundsEmpirical(t *testing.T) {
	funcs := []Function{
		CommonNeighbors{},
		WeightedPaths{Gamma: 0.05},
		Degree{},
	}
	for _, f := range funcs {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			err := quick.Check(func(seed int64, directedFlag bool) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 4 + rng.Intn(8)
				g := randomGraph(rng, n, directedFlag, 0.4)
				r := rng.Intn(n)
				sens := f.Sensitivity(g)
				before, err := denseVector(f, g, r)
				if err != nil {
					return false
				}
				// Flip a random edge not incident to r (the relaxed privacy
				// variant of §3.2).
				u := rng.Intn(n)
				v := rng.Intn(n)
				if u == v || u == r || v == r {
					return true // vacuous draw
				}
				if g.HasEdge(u, v) {
					g.RemoveEdge(u, v)
				} else {
					g.AddEdge(u, v)
				}
				// Sensitivity is declared against the original graph's
				// dmax; adding an edge can only grow dmax by one, which the
				// weighted-paths bound absorbs at these sizes.
				after, err := denseVector(f, g, r)
				if err != nil {
					return false
				}
				var l1 float64
				for i := range before {
					d := math.Abs(after[i] - before[i])
					if d > sens/2+1e-9 {
						return false
					}
					l1 += d
				}
				return l1 <= sens+1e-9
			}, &quick.Config{MaxCount: 60})
			if err != nil {
				t.Error(err)
			}
		})
	}
}
