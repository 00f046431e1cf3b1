package bounds

import (
	"fmt"

	"socialrec/internal/utility"
)

// Partially sensitive graphs — the §8 extension ("only certain edges are
// sensitive", e.g. person-product links private, person-person links
// public). Differential privacy is then required only across pairs of
// graphs differing in one SENSITIVE edge, and the paper conjectures its
// lower-bound techniques "could be suitably modified to consider only
// sensitive edges". This file carries that modification out for the
// common-neighbors running example.
//
// The Lemma 1 chain bounds p(G2)/p(G1) ≤ e^{ε·t} by walking from G1 to G2
// one edge flip at a time, consuming one e^ε factor per flip. A flip of a
// PUBLIC edge carries no privacy constraint, so any promotion rewiring that
// needs a public edge breaks the chain and yields no bound. The ceiling
// below therefore applies Corollary 1 with t = the size of the cheapest
// promotion rewiring that uses sensitive edges only — and when no candidate
// admits an all-sensitive promotion, it reports that privacy imposes no
// ceiling at all (accurate "private" recommendations may genuinely be
// feasible, because the mechanism is free to depend arbitrarily on the
// public edges).

// EdgePolicy reports whether the (potential) edge between u and v is
// sensitive. It is consulted for absent edges too: the rewiring argument
// adds edges, and adding a public edge is unconstrained.
type EdgePolicy func(u, v int) bool

// AllEdgesSensitive is the paper's default model.
func AllEdgesSensitive(u, v int) bool { return true }

// SensitiveCeilingResult reports the partially-sensitive Corollary 1
// evaluation for one target.
type SensitiveCeilingResult struct {
	// Bounded is false when no all-sensitive promotion exists; privacy
	// then imposes no accuracy ceiling for this target and Ceiling is 1.
	Bounded bool
	// Ceiling is the Corollary 1 accuracy upper bound when Bounded.
	Ceiling float64
	// T is the sensitive-edge rewiring count used (0 when unbounded).
	T int
	// Candidate is the promoted low-utility node (-1 when unbounded).
	Candidate int
}

// SensitiveCommonNeighborsCeiling evaluates the partially-sensitive
// accuracy ceiling for target r under the common-neighbors utility.
//
// Promotion structure (Claim 3 of the paper): a candidate x becomes the
// maximum-utility node by connecting it to ⌊u_max⌋+1 distinct neighbors of
// r (plus one extra intermediary pair when u_max = d_r). The chain needs
// every added edge to be sensitive, so x qualifies only if at least
// ⌊u_max⌋+1 of r's neighbors w have (x, w) absent and sensitive. Among
// qualifying candidates the zero-utility ones give the strongest bound (the
// promoted node must start in V_lo); the rewiring count follows §7.1.
func SensitiveCommonNeighborsCeiling(g utility.View, r int, eps float64, policy EdgePolicy) (SensitiveCeilingResult, error) {
	if r < 0 || r >= g.NumNodes() {
		return SensitiveCeilingResult{}, fmt.Errorf("%w: target %d", ErrParams, r)
	}
	if !(eps > 0) {
		return SensitiveCeilingResult{}, fmt.Errorf("%w: eps=%g", ErrParams, eps)
	}
	if policy == nil {
		policy = AllEdgesSensitive
	}
	idx, val, err := utility.CommonNeighbors{}.Sparse(g, r)
	if err != nil {
		return SensitiveCeilingResult{}, err
	}
	candidates := utility.Candidates(g, r)
	umax := utility.Max(val)
	if umax == 0 {
		return SensitiveCeilingResult{}, ErrNoMax
	}
	neighbors := g.Out(r)
	dr := g.OutDegree(r)
	// Edges from x to distinct existing neighbors of r. When u_max = d_r
	// there are not enough existing neighbors to beat the incumbent, so the
	// promotion connects x to all d_r of them and manufactures one fresh
	// intermediary with the pair (r, y), (x, y) — giving the §7.1 count
	// t = u_max + 2. Otherwise t = u_max + 1.
	needExisting := int(umax) + 1
	needFresh := false
	if int(umax) >= dr {
		needExisting = dr
		needFresh = true
	}

	// Find the candidate x with the cheapest all-sensitive promotion. The
	// strongest bound uses a minimal-probability (lowest-utility) node, so
	// scan zero-utility candidates only. The support idx is an ascending
	// subset of the ascending candidates, so one merge skips it.
	best := SensitiveCeilingResult{Bounded: false, Ceiling: 1, Candidate: -1}
	bestT := -1
	next := 0
	for _, x := range candidates {
		if next < len(idx) && int(idx[next]) == x {
			next++
			continue // promote only zero-utility (V_lo) candidates
		}
		avail := 0
		for _, w := range neighbors {
			if int(w) == x || g.HasEdge(x, int(w)) {
				continue
			}
			if policy(x, int(w)) {
				avail++
				if avail >= needExisting {
					break
				}
			}
		}
		if avail < needExisting {
			continue
		}
		t := needExisting
		if needFresh {
			// The fresh common neighbor needs edges (r, y) and (x, y),
			// both sensitive for the chain to hold.
			found := false
			for y := 0; y < g.NumNodes() && !found; y++ {
				if y == r || y == x || g.HasEdge(r, y) || g.HasEdge(x, y) {
					continue
				}
				if policy(r, y) && policy(x, y) {
					found = true
				}
			}
			if !found {
				continue
			}
			t += 2
		}
		if bestT < 0 || t < bestT {
			bestT = t
			best.Candidate = x
		}
	}
	if bestT < 0 {
		return best, nil
	}
	ceiling, err := TightestAccuracyBoundSparse(val, len(candidates), eps, bestT)
	if err != nil {
		return SensitiveCeilingResult{}, err
	}
	return SensitiveCeilingResult{Bounded: true, Ceiling: ceiling, T: bestT, Candidate: best.Candidate}, nil
}
