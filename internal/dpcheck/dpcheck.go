// Package dpcheck empirically verifies differential privacy guarantees by
// exhaustive enumeration: for a target node r and a closed-form mechanism,
// it toggles every possible edge not incident to r (the relaxed edge-DP
// variant of §3.2 of the paper), recomputes the recommendation distribution
// on each neighboring graph, and reports the worst-case probability ratio.
// A mechanism satisfies ε-differential privacy on the instance iff the
// ratio is at most e^ε.
//
// The distribution audited is the one serving draws from: the mechanism's
// sparse closed form (mechanism.SparseDistribution) over the utility's
// nonzero support, with every candidate outside the support taking the
// shared zero-tail mass. So the audit covers the support-plus-tail
// bookkeeping of the served law, not a parallel dense implementation.
//
// The check is exponential-free (it enumerates the O(n²) single-edge
// neighbors of one graph, not all graphs) and is intended for small graphs
// in tests — a few hundred milliseconds at n ≤ 30 — where it catches
// sensitivity-accounting bugs that unit tests on the mechanisms alone
// cannot.
package dpcheck

import (
	"errors"
	"fmt"
	"math"

	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

// Errors returned by the checker.
var (
	ErrTarget = errors.New("dpcheck: target out of range")
	ErrDomain = errors.New("dpcheck: candidate domain changed under edge toggle")
)

// Report is the outcome of one exhaustive neighbor enumeration.
type Report struct {
	// MaxRatio is the largest per-candidate probability ratio observed
	// across all neighboring graph pairs, in either direction. +Inf means
	// some candidate had zero probability on one side and positive on the
	// other (no finite ε holds).
	MaxRatio float64
	// WorstEdge is the toggled edge achieving MaxRatio.
	WorstEdge graph.Edge
	// Pairs is the number of neighboring pairs examined.
	Pairs int
	// Sensitivity is the Δf used to instantiate the mechanism: the max of
	// the utility function's declared sensitivity over the base graph and
	// every neighbor (edge additions can raise dmax-dependent bounds).
	Sensitivity float64
}

// Satisfies reports whether the observed ratio is within e^eps, with a
// small tolerance for floating-point noise.
func (r Report) Satisfies(eps float64) bool {
	return r.MaxRatio <= math.Exp(eps)*(1+1e-9)
}

// MechanismFactory builds the closed-form mechanism under test from the
// sensitivity the checker derives. Factories let the checker pin Δf to the
// worst case over all neighboring graphs, which is what a correct deployment
// must do.
type MechanismFactory func(sensitivity float64) mechanism.SparseDistribution

// Exponential returns a factory for the exponential mechanism at eps.
func Exponential(eps float64) MechanismFactory {
	return func(sens float64) mechanism.SparseDistribution {
		return mechanism.Exponential{Epsilon: eps, Sensitivity: sens}
	}
}

// Smoothing returns a factory for A_S(x) over R_best (sensitivity-free).
func Smoothing(x float64) MechanismFactory {
	return func(float64) mechanism.SparseDistribution {
		return mechanism.Smoothing{X: x, Base: mechanism.Best{}}
	}
}

// Best returns a factory for the non-private optimal recommender.
func Best() MechanismFactory {
	return func(float64) mechanism.SparseDistribution { return mechanism.Best{} }
}

// Check enumerates all single-edge neighbors of g (edges not incident to r)
// and returns the worst-case probability ratio of the mechanism for target
// r under utility f.
func Check(g *graph.Graph, f utility.Function, factory MechanismFactory, r int) (Report, error) {
	n := g.NumNodes()
	if r < 0 || r >= n {
		return Report{}, fmt.Errorf("%w: %d", ErrTarget, r)
	}
	work := g.Clone()
	candidates := utility.Candidates(work, r)

	// Pin Δf to the max declared sensitivity over the base graph and all
	// neighbors. Edge toggles not incident to r never change the candidate
	// set, but they can change dmax and hence dmax-dependent sensitivities.
	sens := f.Sensitivity(work)
	forEachTogglableEdge(work, r, func(u, v int) error {
		toggle(work, u, v)
		if s := f.Sensitivity(work); s > sens {
			sens = s
		}
		toggle(work, u, v)
		return nil
	})

	mech := factory(sens)
	baseProbs, err := probsFor(work, f, mech, r, candidates)
	if err != nil {
		return Report{}, err
	}

	report := Report{MaxRatio: 1, Sensitivity: sens}
	err = forEachTogglableEdge(work, r, func(u, v int) error {
		toggle(work, u, v)
		defer toggle(work, u, v)
		probs, err := probsFor(work, f, mech, r, candidates)
		if err != nil {
			return err
		}
		report.Pairs++
		for i := range probs {
			ratio := ratioOf(baseProbs[i], probs[i])
			if ratio > report.MaxRatio {
				report.MaxRatio = ratio
				report.WorstEdge = graph.Edge{From: u, To: v}
			}
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return report, nil
}

// forEachTogglableEdge visits every node pair that can be toggled without
// touching r: both endpoints differ from r. For undirected graphs each pair
// is visited once; for directed graphs both orientations are visited.
func forEachTogglableEdge(g *graph.Graph, r int, fn func(u, v int) error) error {
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		if u == r {
			continue
		}
		lo := 0
		if !g.Directed() {
			lo = u + 1
		}
		for v := lo; v < n; v++ {
			if v == r || v == u {
				continue
			}
			if err := fn(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func toggle(g *graph.Graph, u, v int) {
	if g.HasEdge(u, v) {
		if err := g.RemoveEdge(u, v); err != nil {
			panic(err) // unreachable: HasEdge was just checked
		}
		return
	}
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// probsFor returns the served recommendation probability of every
// candidate (ascending, as utility.Candidates lists them): the sparse
// closed form over f's nonzero support, with each support node taking its
// own mass and every other candidate the shared zero-tail mass.
func probsFor(g *graph.Graph, f utility.Function, mech mechanism.SparseDistribution, r int, candidates []int) ([]float64, error) {
	idx, val, err := f.Sparse(g, r)
	if err != nil {
		return nil, err
	}
	n := utility.CandidateCount(g, r)
	if n != len(candidates) {
		return nil, fmt.Errorf("%w: %d candidates, %d expected", ErrDomain, n, len(candidates))
	}
	support, tailEach, err := mech.ProbabilitiesSparse(mechanism.SparseVec{Val: val, N: n})
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(candidates))
	j := 0
	for i, c := range candidates {
		if j < len(idx) && int(idx[j]) == c {
			probs[i] = support[j]
			j++
		} else {
			probs[i] = tailEach
		}
	}
	if j != len(idx) {
		return nil, fmt.Errorf("%w: support node %d is not a candidate", ErrDomain, idx[j])
	}
	return probs, nil
}

func ratioOf(a, b float64) float64 {
	if a == b {
		return 1
	}
	if a == 0 || b == 0 {
		return math.Inf(1)
	}
	if a < b {
		a, b = b, a
	}
	return a / b
}
