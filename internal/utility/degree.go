package utility

// Degree is the preferential-attachment utility from the link-prediction
// literature the paper draws its axioms from (Liben-Nowell & Kleinberg):
// u_i = out-degree(i) for candidates at distance >= 2 from the target. It
// satisfies exchangeability (degree is a structural property) and, on
// heavy-tailed graphs, concentration with small β (a few hubs hold a
// constant utility fraction). It is included as the simplest "any utility
// function" instance for exercising the generic Theorem 1 bound.
type Degree struct{}

// Name implements Function.
func (Degree) Name() string { return "degree" }

// Sparse implements Function by gathering StreamSparse.
func (d Degree) Sparse(v View, r int) ([]int32, []float64, error) {
	return gather(d.StreamSparse(v, r))
}

// Sensitivity implements Function: one edge changes the out-degree of at
// most two nodes by 1 each, so the L1 change is at most 2 (= 2·Δ∞).
func (Degree) Sensitivity(View) float64 { return 2 }

// Degree deliberately does not implement Localized: its support is global
// (any edge anywhere changes some candidate's degree for every target), so
// delta-aware cache invalidation would retain nothing — the conservative
// full-flush fallback is the honest behavior.

// RewireCount implements Function: raising a candidate's degree past u_max
// needs ⌊u_max⌋+1 edge additions.
func (Degree) RewireCount(umax float64, dr int) int { return int(umax) + 1 }
