package utility

import (
	"fmt"
	"math"
)

// DefaultMaxPathLen is the truncation the paper's experiments use: "We
// approximate the weighted paths utility by considering paths of length up
// to 3" (§7.1, footnote 10).
const DefaultMaxPathLen = 3

// WeightedPaths is the weighted-path (truncated Katz) utility of §5.2:
//
//	score(r, i) = Σ_{l=2..MaxLen} γ^{l-2} · |paths^{(l)}(r, i)|
//
// so the l=2 term is exactly the common-neighbor count and longer paths are
// geometrically discounted by γ. Small γ (the paper uses 0.0005–0.05) makes
// this a smoothed common-neighbors score.
type WeightedPaths struct {
	// Gamma is the path discount γ; must be in (0, 1).
	Gamma float64
	// MaxLen is the path-length truncation; 0 means DefaultMaxPathLen.
	MaxLen int
}

// Name implements Function.
func (w WeightedPaths) Name() string {
	return fmt.Sprintf("weighted-paths(gamma=%g,len<=%d)", w.Gamma, w.maxLen())
}

func (w WeightedPaths) maxLen() int {
	if w.MaxLen == 0 {
		return DefaultMaxPathLen
	}
	return w.MaxLen
}

func (w WeightedPaths) validate() error {
	if !(w.Gamma > 0 && w.Gamma < 1) {
		return fmt.Errorf("utility: weighted paths gamma %g outside (0,1)", w.Gamma)
	}
	if w.maxLen() < 2 {
		return fmt.Errorf("utility: weighted paths max length %d < 2", w.maxLen())
	}
	return nil
}

// Sparse implements Function by gathering StreamSparse.
func (w WeightedPaths) Sparse(v View, r int) ([]int32, []float64, error) {
	return gather(w.StreamSparse(v, r))
}

// accumulate runs the frontier walk, leaving the discounted scores in s.a;
// StreamSparse streams them. Each level expands only the nodes reached at
// the previous level, so the cost is the size of the MaxLen-hop
// out-neighborhood, not n. Frontiers are swept in ascending node order,
// making every accumulated float bit-identical to the dense walk-matrix
// computation. Each level first
// bounds its expansion by Σ out-degree over the frontier and lets the
// accumulator's density rule pick touch-tracked or direct accumulation —
// on small-world graphs the length-3 frontier already covers most nodes.
// Walks into r are skipped rather than counted and zeroed: r never scores
// and never expands.
func (w WeightedPaths) accumulate(v View, r int, s *sparseScratch) error {
	if err := w.validate(); err != nil {
		return err
	}
	if err := checkTarget(v, r); err != nil {
		return err
	}
	// s.a accumulates the discounted score, s.b holds the current frontier's
	// walk counts, s.c the next level's.
	n := v.NumNodes()
	s.a.grow(n)
	s.b.grow(n)
	s.c.grow(n)
	frontier, next := &s.b, &s.c
	for _, a := range v.Out(r) {
		frontier.add(a, 1)
	}
	weight := 1.0 // γ^{l-2}
	// level is the frontier's ascending index list; each level's reached
	// list is the next level's, already in order.
	level := frontier.ascending(n)
	for l := 2; l <= w.maxLen(); l++ {
		bound := 0
		for _, a := range level {
			bound += v.OutDegree(int(a))
		}
		next.expect(bound, walkDiv)
		for _, a := range level {
			if cnt := frontier.val[a]; cnt != 0 {
				next.addRow(v.Out(int(a)), cnt, int32(r), int32(r))
			}
		}
		reached := next.ascending(n)
		s.a.expect(len(reached), scanDiv)
		for _, i := range reached {
			if c := next.val[i]; c != 0 {
				s.a.add(i, weight*c)
			}
		}
		weight *= w.Gamma
		frontier.reset()
		frontier, next = next, frontier
		level = reached
	}
	return nil
}

// Sensitivity implements Function. Adding one edge (x, y) away from the
// target creates at most one new length-2 path (r→x→y when x is r's
// neighbor, changing u_y by 1) and, at length 3, at most d_max new paths
// through the new edge in position two (r→a→x→y, changing u_y by γ each)
// plus at most d_max in position three (r→x→y→b, changing each u_b by γ).
// Summed over entries the L1 change is at most 1 + 2·γ·d_max per extra
// length beyond 2; doubling covers the 2·Δ∞ exponential-mechanism
// requirement, giving Δf = 2·(1 + 2·γ·d_max·(L-2 terms)). Higher γ ⇒ higher
// sensitivity, which is why the paper observes worse mechanism accuracy for
// larger γ (§7.2).
func (w WeightedPaths) Sensitivity(v View) float64 {
	dmax := float64(v.MaxDegree())
	extra := 0.0
	weight := w.Gamma
	for l := 3; l <= w.maxLen(); l++ {
		extra += 2 * weight * math.Pow(dmax, float64(l-2))
		weight *= w.Gamma
	}
	return 2 * (1 + extra)
}

// InvalidationRadius implements Localized. Paths of length <= MaxLen from r
// traverse rows of nodes at out-distance <= MaxLen-1, so the output is
// determined by the MaxLen-hop out-ball: an edge (u, v) on some counted
// path has u within MaxLen-1 out-hops of r. ρ = MaxLen (3 by default, per
// the paper's truncation).
func (w WeightedPaths) InvalidationRadius() int { return w.maxLen() }

// RewireCount implements Function with the exact per-target value from
// §7.1: t = ⌊u_max⌋ + 2 — a candidate wired to ⌊u_max⌋+1 fresh
// intermediaries of r (plus one edge to create an intermediary when needed)
// strictly beats every incumbent's score.
func (WeightedPaths) RewireCount(umax float64, dr int) int {
	return int(math.Floor(umax)) + 2
}
