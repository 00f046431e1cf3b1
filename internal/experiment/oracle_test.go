package experiment

import (
	"math"
	"testing"

	"socialrec/internal/bounds"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

// denseVector returns f's utility for every candidate of target r in
// candidate order, zeros included: the kernel's stream scattered over
// zeros and gathered at the candidates.
func denseVector(f utility.Function, v utility.View, r int) ([]float64, error) {
	sc, err := f.StreamSparse(v, r)
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
	candidates := utility.Candidates(v, r)
	out := make([]float64, len(candidates))
	for k, c := range candidates {
		out[k] = full[c]
	}
	return out, nil
}

// positive returns vec's positive entries in order: the support the bound
// reads next to the candidate count. Zeros passed as support would count
// as positive-utility nodes in the bound's c → 1 probe.
func positive(vec []float64) []float64 {
	var out []float64
	for _, x := range vec {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// TestRunMatchesDenseOracle evaluates every target of the test graph and
// checks Run's sparse evaluation against the mechanisms over the target's
// compacted candidate vector, every candidate in the support and no zero
// tail: the same targets skipped, and the same Exponential, Smoothing and
// Bound values.
func TestRunMatchesDenseOracle(t *testing.T) {
	const tol = 1e-12
	g := testGraph(t)
	snap := g.Snapshot()
	epsilons := []float64{0.5, 1, 3}
	for _, u := range []utility.Function{utility.CommonNeighbors{}, utility.Jaccard{}, utility.WeightedPaths{Gamma: 0.05}} {
		results := mustRun(t, g, Config{Utility: u, Epsilons: epsilons, TargetFraction: 1, Seed: 1})
		sens := u.Sensitivity(snap)
		evaluated := map[int]int{} // node -> index into each Result's Targets
		for j, tr := range results[0].Targets {
			evaluated[tr.Node] = j
		}
		skipped := 0
		for r := 0; r < g.NumNodes(); r++ {
			vec, err := denseVector(u, snap, r)
			if err != nil {
				t.Fatal(err)
			}
			dense := mechanism.SparseVec{Val: vec, N: len(vec)}
			umax := utility.Max(vec)
			j, ok := evaluated[r]
			if umax == 0 {
				skipped++
				if ok {
					t.Errorf("%s: node %d has no positive utility but was evaluated", u.Name(), r)
				}
				continue
			}
			if !ok {
				t.Errorf("%s: node %d has positive utility but was skipped", u.Name(), r)
				continue
			}
			tcount := u.RewireCount(umax, snap.OutDegree(r))
			for i, eps := range epsilons {
				got := results[i].Targets[j]
				if got.UMax != umax || got.T != tcount {
					t.Errorf("%s node %d: umax %g t %d, dense %g %d", u.Name(), r, got.UMax, got.T, umax, tcount)
				}
				exp, err := mechanism.ExpectedAccuracySparse(mechanism.Exponential{Epsilon: eps, Sensitivity: sens}, dense)
				if err != nil {
					t.Fatal(err)
				}
				x, err := mechanism.SmoothingXForEpsilon(eps, len(vec))
				if err != nil {
					t.Fatal(err)
				}
				smooth, err := mechanism.ExpectedAccuracySparse(mechanism.Smoothing{X: x, Base: mechanism.Best{}}, dense)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := bounds.TightestAccuracyBoundSparse(positive(vec), len(vec), eps, tcount)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name      string
					got, want float64
				}{{"exponential", got.Exponential, exp}, {"smoothing", got.Smoothing, smooth}, {"bound", got.Bound, bound}} {
					if math.Abs(c.got-c.want) > tol {
						t.Errorf("%s node %d eps=%g: %s %.17g, dense %.17g", u.Name(), r, eps, c.name, c.got, c.want)
					}
				}
			}
		}
		if results[0].Skipped != skipped {
			t.Errorf("%s: %d skipped, dense %d", u.Name(), results[0].Skipped, skipped)
		}
	}
}

// TestRunPaperClaimsPerTarget checks, for every target of a multi-ε run
// under each built-in utility, the two properties the paper states: the
// Exponential mechanism's accuracy does not fall as ε grows (the
// ε-derivative of a Gibbs expectation is a variance), and no target's
// accuracy exceeds its Corollary 1 ceiling.
func TestRunPaperClaimsPerTarget(t *testing.T) {
	const tol = 1e-9
	g := testGraph(t)
	epsilons := []float64{0.25, 0.5, 1, 2, 4}
	for _, u := range []utility.Function{
		utility.CommonNeighbors{}, utility.Jaccard{}, utility.WeightedPaths{Gamma: 0.05},
		utility.WeightedPaths{Gamma: 0.0005}, utility.PageRank{}, utility.Degree{},
	} {
		results := mustRun(t, g, Config{Utility: u, Epsilons: epsilons, TargetFraction: 1, Seed: 1})
		for j := range results[0].Targets {
			for i := range results {
				tr := results[i].Targets[j]
				if tr.Exponential > tr.Bound+tol {
					t.Errorf("%s node %d eps=%g: accuracy %.17g exceeds ceiling %.17g", u.Name(), tr.Node, epsilons[i], tr.Exponential, tr.Bound)
				}
				if i > 0 {
					if prev := results[i-1].Targets[j].Exponential; tr.Exponential < prev-tol {
						t.Errorf("%s node %d: accuracy fell from %.17g at eps=%g to %.17g at eps=%g",
							u.Name(), tr.Node, prev, epsilons[i-1], tr.Exponential, epsilons[i])
					}
				}
			}
		}
	}
}
