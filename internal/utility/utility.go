// Package utility implements the graph link-analysis utility functions the
// paper studies: common neighbors, weighted paths (the truncated Katz
// measure), degree (preferential attachment), and rooted personalized
// PageRank. Each function produces, for a target node r, the utility vector
// u over all candidate nodes, reports the global sensitivity Δf consumed by
// the differentially private mechanisms, and reports the per-node rewiring
// count t used by the Corollary 1 accuracy ceiling (computed exactly per
// §7.1 of the paper).
//
// Candidate convention (§7.1): nodes the target is already connected to, and
// the target itself, receive utility 0 and are never recommended.
package utility

import (
	"errors"

	"socialrec/internal/graph"
)

// View is the read-only graph interface utilities are computed against.
// Both *graph.Graph and its immutable *graph.CSR snapshot satisfy it, so
// callers can pick mutable convenience or scan throughput. Out returns v's
// out-neighbors ascending as a shared span the kernels walk directly;
// callers must not modify it.
type View interface {
	NumNodes() int
	Directed() bool
	OutDegree(v int) int
	InDegree(v int) int
	MaxDegree() int
	HasEdge(u, v int) bool
	Out(v int) []int32
}

// Compile-time checks that every graph representation satisfies View: the
// mutable graph, both snapshot-store backends, and the graph.Store
// interface itself, so any future backend is a View by construction and
// the adjacency scans here never depend on which store serves them.
var (
	_ View = (*graph.Graph)(nil)
	_ View = (*graph.CSR)(nil)
	_ View = (*graph.Mapped)(nil)
	_ View = (graph.Store)(nil)
)

// ErrTarget is returned when the target node is out of range.
var ErrTarget = errors.New("utility: target node out of range")

// Function is one graph link-analysis utility measure. Its one kernel is
// StreamSparse, from the embedded Streamer: a pooled accumulation that
// streams the target's nonzero support. Sparse gathers that stream into
// caller-owned slices (the dense vector exists only in the tests, which
// scatter the same stream), so every form of a utility's output comes
// from the same accumulation. A utility defined outside this package must stream too.
type Function interface {
	// Name returns a short stable identifier ("common-neighbors", ...).
	Name() string

	// Streamer supplies the kernel, StreamSparse.
	Streamer

	// Sparse returns the nonzero support of the utility vector for target
	// r: idx holds candidate node IDs ascending, val the matching positive
	// utilities — exactly the pairs StreamSparse emits, gathered into
	// exact-size caller-owned slices. Nodes absent from idx — including r
	// itself and r's existing out-neighbors — have utility 0. The built-in
	// utilities implement it as a one-line gather of their own
	// StreamSparse.
	Sparse(v View, r int) (idx []int32, val []float64, err error)

	// Sensitivity returns the Δf plugged into the Exponential and Laplace
	// mechanisms for graphs shaped like v: an upper bound on the L1 change
	// of any target's utility vector when one edge not incident to the
	// target is added or removed. For every implementation this bound also
	// dominates twice the per-entry (L∞) change, which is what makes the
	// paper's e^{(ε/Δf)·u_i} exponential weighting ε-differentially private.
	Sensitivity(v View) float64

	// RewireCount returns t, the number of edge alterations sufficient to
	// raise a zero-utility node to the maximum utility for a target with
	// degree dr and current maximum utility umax. The experiments (§7.1)
	// compute it exactly per target.
	RewireCount(umax float64, dr int) int
}

// Localized is the optional interface a Function implements to declare that
// its output is local: InvalidationRadius returns a hop bound ρ > 0 such
// that the function's result for a target r is fully determined by the
// ρ-hop out-ball of r — the adjacency rows of every node at out-distance
// < ρ from r, plus the in/out-degrees of every node at out-distance <= ρ
// (and r's own row). Equivalently: adding or removing an edge (u, v) cannot
// change the output for r unless u or v lies within ρ out-hops of r. The
// nonzero support of Sparse(r) lies inside the same ball.
//
// The serving layer uses this contract for delta-aware cache invalidation:
// after a snapshot swap it retains every cached vector whose target is
// farther than ρ from all delta endpoints (measured on the pre- and
// post-patch graphs), because the declaration guarantees such an entry is
// bit-identical to a fresh recompute. The bound must therefore be exact or
// conservative — never optimistic. Note it only covers edge deltas for a
// fixed node set; node additions change the candidate count n-1-d(r) of
// every target, and the caller handles them with a full flush.
//
// Functions whose support is effectively global (Degree scores every
// non-isolated node; PageRank's power iteration propagates mass across the
// whole reachable component) must NOT implement Localized: the absence of a
// radius is what triggers the conservative flush-everything fallback.
type Localized interface {
	// InvalidationRadius returns the hop bound ρ described above; values
	// <= 0 are treated as "not localized".
	InvalidationRadius() int
}

// Compile-time record of which utilities declare locality. Degree and
// PageRank are intentionally absent; see the comments at their RewireCount
// methods.
var (
	_ Localized = CommonNeighbors{}
	_ Localized = Jaccard{}
	_ Localized = WeightedPaths{}
)

// Max returns the largest value in vec (0 for an empty vector). Utility
// vectors are non-negative by construction, so 0 doubles as "no candidate".
func Max(vec []float64) float64 {
	max := 0.0
	for _, x := range vec {
		if x > max {
			max = x
		}
	}
	return max
}

// Candidates returns the valid candidate nodes for target r in ascending
// order: every node except r itself and r's existing out-neighbors. This is
// the domain the paper's experiments evaluate mechanisms over ("each of the
// other nodes in the network, except those r is already connected to",
// §7.1). Restricting the domain by r's own edges is compatible with the
// relaxed privacy definition of §3.2, which only protects edges not incident
// to the recommendation receiver.
func Candidates(v View, r int) []int {
	n := v.NumNodes()
	excluded := getExclusions(v, r)
	defer putExclusions(excluded)
	out := make([]int, 0, CandidateCount(v, r))
	for i := 0; i < n; i++ {
		if !excluded.has(i) {
			out = append(out, i)
		}
	}
	return out
}
