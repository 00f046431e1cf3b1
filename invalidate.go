package socialrec

import (
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

// Delta-aware cache invalidation, run at every live rebuild of a cached
// Recommender: a snapshot swap that orphaned every cached utility vector by
// bumping the epoch would leave a live graph under steady mutation traffic
// serving almost entirely uncached. But the serving utilities are local —
// a CommonNeighbors vector depends only on the 2-hop out-ball of its
// target — so a small delta batch provably cannot touch the vast majority
// of cached targets. This file computes, for one patched batch, a
// conservative superset of the targets whose entries could differ on the
// new snapshot; vectorCache.advance then re-keys every other entry to the
// new epoch untouched.
//
// Correctness rests on the utility.Localized contract: with declared radius
// ρ, the entry for target r is a pure function of r's ρ-hop out-ball (rows
// at out-distance < ρ, degrees at distance <= ρ). Comparing the pre-patch
// graph G and the post-patch graph G', the entry can differ only if some
// edge of the symmetric difference — a subset of the batch's edge deltas —
// intersects that ball in G or in G'. Contrapositive: if no delta endpoint
// is within ρ out-hops of r in either graph, the ball subgraphs are
// identical edge-for-edge and the recomputed entry — idx, val, umax, and
// (given an unchanged candidate count, Δf, and smoothing x) the CDF —
// is bit-identical, because the kernels are deterministic scans of exactly
// that ball. So the affected set is the reverse ρ-hop ball of the delta
// endpoints.
//
// One store suffices to grow that ball, although an edge add can pull a
// node into a support that was previously empty and an edge removal can
// orphan one. Take a shortest out-path from r to its nearest delta
// endpoint. Its first delta edge would start at a delta endpoint nearer to
// r, so the path uses no delta edge. Every edge outside the batch is in G
// exactly when it is in G', so the path exists in G, in G', and in every
// intermediate graph. r's distance to the endpoint set is therefore the
// same in all of them, and the reverse ball grown over G' alone equals the
// one grown over G or over their union.
//
// Two conditions void the ball argument entirely and force a full flush:
// node additions (the candidate count n-1-d(r) of EVERY target changes, and
// ncand is baked into each entry's tail ranks), and any change to the
// state-wide Δf or smoothing x (baked into each entry's CDF weights).
//
// DP-safety of retention: a cached entry is pure pre-noise state — raw
// utilities, never released. Retention only ever serves an entry that is
// bit-identical to what a cache miss would recompute from the new snapshot,
// so the mechanism's output distribution — and therefore the ε guarantee —
// is exactly that of an uncached Recommender over the new graph. The
// privacy-bearing noise is still drawn fresh per request; no randomness and
// no released output ever crosses a snapshot boundary.

// affectedSet is what one patched delta batch may have touched, handed to
// vectorCache.advance at swap time: the batch's edge endpoints expanded by
// radius reverse-BFS hops over the post-patch adjacency, held as a bitset
// over node IDs. advance drops every entry whose target is in the set and
// re-keys the rest; by the argument above, that alone keeps every retained
// entry bit-identical.
//
// A per-entry dependency test would add nothing. An entry's dependency
// closure — the target, its out-neighbors and its nonzero support, which a
// served tail pick steps over — lies inside the target's ρ-out-ball on the
// pre-patch graph, because the Localized contract confines the support to
// that ball. So a delta endpoint in the closure is within ρ out-hops of the
// target, and the target is already in the set. In particular a retained
// target's own out-row is unchanged, so its tail picks resolve through the
// new snapshot's row exactly as through the old one. The set also catches entries whose support
// the batch created from nothing, which a closure test would miss.
type affectedSet struct {
	touched []uint64
}

// has reports whether target is in the touched set.
func (a *affectedSet) has(target int) bool {
	w := target >> 6
	return w < len(a.touched) && a.touched[w]&(1<<(uint(target)&63)) != 0
}

// retentionRadius returns the serving utility's declared invalidation
// radius, or 0 when the cache must fall back to full flushes (utility not
// Localized).
func (r *Recommender) retentionRadius() int {
	lu, ok := r.util.(utility.Localized)
	if !ok {
		return 0
	}
	if rad := lu.InvalidationRadius(); rad > 0 {
		return rad
	}
	return 0
}

// affectedByBatch computes the affectedSet for one patched batch, or nil
// when the swap must flush everything:
//
//   - the utility declares no radius;
//   - the batch adds a node (every entry's candidate count changes);
//   - Δf or the smoothing x changed across the swap (baked into CDFs).
//
// The batch is always the whole diff between cur and next: it is every
// delta logged since cur.snap, including any a failed rebuild left pending.
func (r *Recommender) affectedByBatch(cur, next *snapState, deltas []graph.Delta) *affectedSet {
	radius := r.retentionRadius()
	if radius == 0 {
		return nil
	}
	if next.sens != cur.sens || next.x != cur.x {
		return nil
	}
	for _, d := range deltas {
		if d.Op == graph.DeltaAddNode {
			return nil
		}
	}
	// With node additions ruled out, cur and next have the same node count.
	snap := next.snap
	aff := &affectedSet{touched: make([]uint64, (snap.NumNodes()+63)/64)}
	frontier := make([]int32, 0, 2*len(deltas))
	mark := func(v int32) {
		if !aff.has(int(v)) {
			aff.touched[v>>6] |= 1 << (v & 63)
			frontier = append(frontier, v)
		}
	}
	for _, d := range deltas {
		mark(int32(d.From))
		mark(int32(d.To))
	}
	// Reverse BFS: a target is affected when a delta endpoint lies within
	// radius out-hops of it, so the touched set is grown by following
	// in-edges from the endpoints. The post-patch store alone gives the same
	// ball as the pre-patch one (see the file comment). (On undirected
	// graphs In == Out and this is the plain neighborhood ball.)
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		level := frontier
		frontier = nil
		for _, v := range level {
			for _, u := range snap.In(int(v)) {
				mark(u)
			}
		}
	}
	return aff
}
