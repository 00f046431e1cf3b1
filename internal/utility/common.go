package utility

// CommonNeighbors is the number-of-common-neighbors utility (the paper's
// running example, §4.1): u_i = C(i, r), the number of two-hop
// intermediaries between the target and i (following out-edges on directed
// graphs, per §7.1).
type CommonNeighbors struct{}

// Name implements Function.
func (CommonNeighbors) Name() string { return "common-neighbors" }

// Sparse implements Function by gathering StreamSparse.
func (cn CommonNeighbors) Sparse(v View, r int) ([]int32, []float64, error) {
	return gather(cn.StreamSparse(v, r))
}

// Sensitivity implements Function. Adding or removing one edge (x, y) not
// incident to the target changes C(x, r) by at most 1 (when y is a neighbor
// of r) and C(y, r) by at most 1 (when x is), so the L1 change of the
// utility vector is at most 2 — and the per-entry change is at most 1, so
// Δf = 2 also covers the 2·Δ∞ requirement of the exponential mechanism.
func (CommonNeighbors) Sensitivity(View) float64 { return 2 }

// InvalidationRadius implements Localized. C(i, r) counts two-hop walks
// r -> a -> i, so the output for r depends only on the rows of r and of
// r's out-neighbors — the 2-hop out-ball. An edge (u, v) can only change
// the vector when u ∈ {r} ∪ out(r), i.e. when an endpoint is within 2
// out-hops of r.
func (CommonNeighbors) InvalidationRadius() int { return 2 }

// RewireCount implements Function with the exact per-target value from
// §7.1: t = u_max + 1 + I(u_max == d_r). Connecting a candidate to u_max+1
// of r's neighbors beats every incumbent (each has at most u_max common
// neighbors); when u_max already equals d_r there is no spare neighbor, so
// one extra edge from r to a fresh intermediary is also needed.
func (CommonNeighbors) RewireCount(umax float64, dr int) int {
	t := int(umax) + 1
	if int(umax) == dr {
		t++
	}
	return t
}
