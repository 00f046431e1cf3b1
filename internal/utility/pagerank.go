package utility

import (
	"fmt"
	"math"
)

// PageRank is the rooted (personalized) PageRank utility, the third
// link-analysis measure the paper lists as a candidate utility (§1, citing
// Liben-Nowell & Kleinberg): u_i is the stationary probability of a random
// walk that restarts at the target r with probability Alpha at every step
// and otherwise follows a uniform out-edge. Computed by power iteration to
// the requested tolerance.
type PageRank struct {
	// Alpha is the restart (teleport) probability; 0 means 0.15.
	Alpha float64
	// Iterations caps the power iterations; 0 means 50.
	Iterations int
	// Tolerance stops iteration early when the L1 delta drops below it;
	// 0 means 1e-9.
	Tolerance float64
}

// Name implements Function.
func (p PageRank) Name() string { return fmt.Sprintf("pagerank(alpha=%g)", p.alpha()) }

func (p PageRank) alpha() float64 {
	if p.Alpha == 0 {
		return 0.15
	}
	return p.Alpha
}

func (p PageRank) iterations() int {
	if p.Iterations == 0 {
		return 50
	}
	return p.Iterations
}

func (p PageRank) tolerance() float64 {
	if p.Tolerance == 0 {
		return 1e-9
	}
	return p.Tolerance
}

// Sparse implements Function by gathering StreamSparse.
func (p PageRank) Sparse(v View, r int) ([]int32, []float64, error) {
	return gather(p.StreamSparse(v, r))
}

// accumulate runs the power iteration into s and returns the accumulator
// holding the converged mass (one of s.a/s.b, depending on iteration
// parity); StreamSparse streams it. Each sweep redistributes only the nodes
// currently holding mass, so early iterations cost the size of the growing
// reachable set rather than n. Frontiers are swept in ascending node order
// and the convergence delta is accumulated over the merged frontier, making
// every float — and the iteration count — bit-identical to the dense power
// iteration.
func (p PageRank) accumulate(v View, r int, s *sparseScratch) (*accumulator, error) {
	if err := checkTarget(v, r); err != nil {
		return nil, err
	}
	alpha := p.alpha()
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("utility: pagerank alpha %g outside (0,1)", alpha)
	}
	n := v.NumNodes()
	s.a.grow(n)
	s.b.grow(n)
	cur, next := &s.a, &s.b
	cur.add(int32(r), 1)
	for iter := 0; iter < p.iterations(); iter++ {
		next.add(int32(r), alpha)
		var dangling float64
		for _, i := range cur.ascending(n) {
			mass := cur.val[i]
			if mass == 0 {
				continue
			}
			d := v.OutDegree(int(i))
			if d == 0 {
				dangling += mass // dangling mass restarts at the root
				continue
			}
			share := (1 - alpha) * mass / float64(d)
			for _, u := range v.Out(int(i)) {
				next.add(u, share)
			}
		}
		next.add(int32(r), (1-alpha)*dangling)
		next.ascending(n)
		delta := mergedAbsDiff(cur, next)
		cur.reset()
		cur, next = next, cur
		if delta < p.tolerance() {
			break
		}
	}
	return cur, nil
}

// mergedAbsDiff returns Σ |a[i] - b[i]| over the union of the two sorted
// touched sets, in ascending index order — the same accumulation order (and
// therefore the same float result) as a dense scan, whose untouched entries
// contribute exact zeros.
func mergedAbsDiff(a, b *accumulator) float64 {
	var delta float64
	i, j := 0, 0
	for i < len(a.touched) || j < len(b.touched) {
		switch {
		case j >= len(b.touched) || (i < len(a.touched) && a.touched[i] < b.touched[j]):
			delta += math.Abs(a.val[a.touched[i]])
			i++
		case i >= len(a.touched) || b.touched[j] < a.touched[i]:
			delta += math.Abs(b.val[b.touched[j]])
			j++
		default: // same index
			delta += math.Abs(b.val[b.touched[j]] - a.val[a.touched[i]])
			i++
			j++
		}
	}
	return delta
}

// Sensitivity implements Function with the conservative L1 bound
// 2·(1-α)/α: rerouting one edge can shift at most the (1-α) non-restart
// mass at each subsequent step, and the geometric series of step
// contributions sums to (1-α)/α; the factor 2 covers addition plus removal
// and the 2·Δ∞ requirement of the exponential mechanism.
func (p PageRank) Sensitivity(View) float64 {
	alpha := p.alpha()
	return 2 * (1 - alpha) / alpha
}

// PageRank deliberately does not implement Localized: the power iteration
// propagates restart mass across the entire component reachable from the
// target (up to iterations() hops — 50 by default), so no small hop bound
// determines the output and the cache must fall back to a full flush on
// snapshot swaps.

// RewireCount implements Function with the generic Theorem 1 value
// t <= 4·d_max specialized to the target: wiring a candidate directly to the
// target's neighborhood needs at most d_r additions, plus the symmetric
// swap, mirroring the generic exchange argument. We report 2·(d_r + 1) as a
// conservative per-target value.
func (PageRank) RewireCount(umax float64, dr int) int { return 2 * (dr + 1) }
