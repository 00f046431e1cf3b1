package utility

// Jaccard is the Jaccard-coefficient utility from the link-prediction suite
// the paper draws on (Liben-Nowell & Kleinberg):
//
//	u_i = |N(i) ∩ N(r)| / |N(i) ∪ N(r)|
//
// computed over out-neighborhoods (following edges out of the target on
// directed graphs, matching the §7.1 convention; the intersection counts
// two-hop intermediaries exactly as CommonNeighbors does). Scores lie in
// [0, 1], which caps the per-entry sensitivity regardless of degree.
type Jaccard struct{}

// Name implements Function.
func (Jaccard) Name() string { return "jaccard" }

// Sparse implements Function by gathering StreamSparse.
func (j Jaccard) Sparse(v View, r int) ([]int32, []float64, error) {
	return gather(j.StreamSparse(v, r))
}

// Sensitivity implements Function. Flipping one edge (x, y) not incident to
// the target changes only the neighborhoods of x and y, hence only the
// scores u_x and u_y; each score is confined to [0, 1], so the per-entry
// change is at most 1 and the L1 change at most 2. Δf = 2 therefore also
// covers the 2·Δ∞ requirement of the exponential mechanism.
func (Jaccard) Sensitivity(View) float64 { return 2 }

// InvalidationRadius implements Localized. The intersection term is the
// CommonNeighbors two-hop walk; the union term additionally reads
// InDegree(i) of each support node i, which sits at out-distance exactly 2
// from r. An edge (u, v) changing InDegree(i) has v = i within 2 out-hops
// of r, so the 2-hop ball (rows at distance < 2, degrees at distance <= 2)
// determines the output — exactly the Localized contract for ρ = 2.
func (Jaccard) InvalidationRadius() int { return 2 }

// RewireCount implements Function. Wiring a fresh candidate x to every one
// of r's d_r neighbors and nothing else gives u_x = 1, the global maximum
// of the coefficient, beating any incumbent with u < 1; when the incumbent
// already scores 1 a fresh shared intermediary (2 extra edges) breaks the
// tie in x's favor on the intersection size. A zero-utility x may carry up
// to d_r pre-existing edges to remove in the worst case, giving the
// conservative bound t <= 2·d_r + 2.
func (Jaccard) RewireCount(umax float64, dr int) int { return 2*dr + 2 }
