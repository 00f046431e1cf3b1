package dpcheck

import (
	"errors"
	"math"
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

func smallGraph(t *testing.T, seed int64, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyiGNM(n, m, distribution.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallDirected(t *testing.T, seed int64, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.DirectedPreferentialAttachment(n, m, 2, 2.0, distribution.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExponentialIsPrivate is the theorem-4 end-to-end check: the
// exponential mechanism with the utility's declared sensitivity satisfies
// ε-DP against every single-edge neighbor, for every utility function, on
// both undirected and directed graphs. The sparse graph leaves target 0
// few positive-utility candidates and a long zero tail, so the tail's
// bookkeeping carries most of the audited mass (see
// TestTailBookkeepingCaught).
func TestExponentialIsPrivate(t *testing.T) {
	utilities := []utility.Function{
		utility.CommonNeighbors{},
		utility.WeightedPaths{Gamma: 0.05},
		utility.Degree{},
		utility.Jaccard{},
	}
	graphs := map[string]*graph.Graph{
		"undirected": smallGraph(t, 1, 14, 30),
		"directed":   smallDirected(t, 2, 14, 40),
		"sparse":     smallGraph(t, 1, 24, 24),
	}
	for gname, g := range graphs {
		for _, f := range utilities {
			for _, eps := range []float64{0.5, 1, 3} {
				rep, err := Check(g, f, Exponential(eps), 0)
				if err != nil {
					t.Fatalf("%s/%s eps=%g: %v", gname, f.Name(), eps, err)
				}
				if rep.Pairs == 0 {
					t.Fatalf("%s/%s: no pairs checked", gname, f.Name())
				}
				if !rep.Satisfies(eps) {
					t.Errorf("%s/%s eps=%g: max ratio %g exceeds e^eps=%g (worst edge %v, sens %g)",
						gname, f.Name(), eps, rep.MaxRatio, math.Exp(eps), rep.WorstEdge, rep.Sensitivity)
				}
			}
		}
	}
}

// TestExponentialRatioIsTightish sanity-checks that the verifier actually
// measures something: the worst-case ratio should be meaningfully above 1
// (a vacuous checker would report exactly 1 everywhere).
func TestExponentialRatioIsTightish(t *testing.T) {
	g := smallGraph(t, 3, 12, 24)
	rep, err := Check(g, utility.CommonNeighbors{}, Exponential(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRatio <= 1.01 {
		t.Errorf("max ratio %g suspiciously close to 1", rep.MaxRatio)
	}
}

// TestBestIsNotPrivate: R_best concentrates all probability on the argmax,
// so toggling an edge that changes the argmax produces an infinite ratio.
func TestBestIsNotPrivate(t *testing.T) {
	g := smallGraph(t, 4, 10, 18)
	rep, err := Check(g, utility.CommonNeighbors{}, Best(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.MaxRatio, 1) {
		t.Errorf("R_best should violate DP with infinite ratio, got %g", rep.MaxRatio)
	}
	if rep.Satisfies(100) {
		t.Error("Satisfies should reject an infinite ratio at any eps")
	}
}

// TestSmoothingIsPrivateAtTheorem5Epsilon verifies A_S(x) against the exact
// ε = ln(1 + nx/(1-x)) Theorem 5 grants, where n is the candidate count.
func TestSmoothingIsPrivateAtTheorem5Epsilon(t *testing.T) {
	g := smallGraph(t, 5, 12, 20)
	const x = 0.3
	rep, err := Check(g, utility.CommonNeighbors{}, Smoothing(x), 0)
	if err != nil {
		t.Fatal(err)
	}
	nCand := len(utility.Candidates(g, 0))
	eps := (mechanism.Smoothing{X: x, Base: mechanism.Best{}}).Epsilon(nCand)
	if !rep.Satisfies(eps) {
		t.Errorf("smoothing ratio %g exceeds e^%g", rep.MaxRatio, eps)
	}
	// And it should NOT satisfy a drastically smaller epsilon... unless the
	// graph never flips the argmax; verify only when the ratio is > 1.
	if rep.MaxRatio > 1 && rep.Satisfies(0.0001) {
		t.Errorf("ratio %g should exceed e^0.0001", rep.MaxRatio)
	}
}

// TestUnderdeclaredSensitivityCaught: the checker must catch a mechanism
// configured with a sensitivity below the utility's true Δf. We simulate the
// bug by fixing Δf to a fraction of the declared value and driving ε high
// enough that headroom disappears.
func TestUnderdeclaredSensitivityCaught(t *testing.T) {
	g := smallGraph(t, 6, 12, 26)
	const eps = 1.0
	buggy := func(sens float64) mechanism.SparseDistribution {
		return mechanism.Exponential{Epsilon: eps, Sensitivity: sens / 10}
	}
	rep, err := Check(g, utility.CommonNeighbors{}, buggy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfies(eps) {
		t.Errorf("10x underdeclared sensitivity went unnoticed (ratio %g)", rep.MaxRatio)
	}
}

// tailOnceExponential is the exponential mechanism with a tail
// bookkeeping bug: its normaliser adds the zero tail's shared weight once,
// not once per zero-utility candidate.
type tailOnceExponential struct{ mechanism.Exponential }

func (e tailOnceExponential) ProbabilitiesSparse(s mechanism.SparseVec) ([]float64, float64, error) {
	scale := e.Epsilon / e.Sensitivity
	umax := 0.0
	for _, x := range s.Val {
		umax = math.Max(umax, x)
	}
	tailWeight := math.Exp(-scale * umax)
	total := tailWeight // the bug: N - nnz tail candidates counted once
	support := make([]float64, len(s.Val))
	for i, x := range s.Val {
		support[i] = math.Exp(scale * (x - umax))
		total += support[i]
	}
	for i := range support {
		support[i] /= total
	}
	return support, tailWeight / total, nil
}

// TestTailBookkeepingCaught: the audit reads the served support-plus-tail
// law, so a normaliser that miscounts the zero tail must fail it on the
// graph where the correct exponential mechanism passes. The miscount is an
// additive error in the normaliser, so on a dense graph with a short tail
// it shows against the multiplicative e^ε bound only at small ε: 1.16
// against e^0.1 ≈ 1.105, where the correct mechanism reads 1.04. On the
// sparse graph of TestExponentialIsPrivate the tail holds most candidates,
// and the bug shows at the ε that test audits: 2.28 against e^0.5 ≈ 1.649,
// where the correct mechanism reads 1.27.
func TestTailBookkeepingCaught(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		eps  float64
	}{
		{"dense", smallGraph(t, 6, 12, 26), 0.1},
		{"sparse", smallGraph(t, 1, 24, 24), 0.5},
	} {
		rep, err := Check(c.g, utility.CommonNeighbors{}, Exponential(c.eps), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Satisfies(c.eps) {
			t.Fatalf("%s: correct exponential mechanism fails the audit (ratio %g)", c.name, rep.MaxRatio)
		}
		buggy := func(sens float64) mechanism.SparseDistribution {
			return tailOnceExponential{mechanism.Exponential{Epsilon: c.eps, Sensitivity: sens}}
		}
		rep, err = Check(c.g, utility.CommonNeighbors{}, buggy, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: tail counted once: max ratio %g (worst edge %v), e^eps = %g", c.name, rep.MaxRatio, rep.WorstEdge, math.Exp(c.eps))
		if rep.Satisfies(c.eps) {
			t.Errorf("%s: a normaliser counting the zero tail once went unnoticed (ratio %g)", c.name, rep.MaxRatio)
		}
	}
}

func TestCheckTargetValidation(t *testing.T) {
	g := smallGraph(t, 7, 5, 6)
	if _, err := Check(g, utility.CommonNeighbors{}, Exponential(1), 99); !errors.Is(err, ErrTarget) {
		t.Errorf("want ErrTarget, got %v", err)
	}
}

func TestCheckDoesNotMutateGraph(t *testing.T) {
	g := smallGraph(t, 8, 10, 15)
	before := g.Clone()
	if _, err := Check(g, utility.CommonNeighbors{}, Exponential(1), 0); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Error("Check mutated the input graph")
	}
}

func TestPairCountUndirected(t *testing.T) {
	// n=5, target 0: togglable pairs are all {u,v} ⊂ {1,2,3,4}: C(4,2)=6.
	g := graph.New(5)
	rep, err := Check(g, utility.Degree{}, Exponential(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 6 {
		t.Errorf("pairs = %d, want 6", rep.Pairs)
	}
}

func TestPairCountDirected(t *testing.T) {
	// Directed: ordered pairs over {1,2,3,4}: 4*3 = 12.
	g := graph.NewDirected(5)
	rep, err := Check(g, utility.Degree{}, Exponential(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 12 {
		t.Errorf("pairs = %d, want 12", rep.Pairs)
	}
}
