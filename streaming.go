package socialrec

import (
	"fmt"
	"math"
	"slices"

	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

// The per-request pipeline. A request reads its target's utility support
// from one of two sources and then runs the same draw and the same tail
// resolution over it:
//
//   - with no cache, the utility kernel's pooled stream.Scorer, so the
//     vector is never materialized;
//   - through the cache, a pooled stream.Slice over the cached entry's
//     gap-coded node IDs and level-coded or per-node utilities, which
//     stream.Encode gathered from that same kernel.
//
// Both sources yield the same ascending (node, utility) pairs, and every
// mechanism's streaming draw depends only on those pairs, so a cached and
// an uncached Recommender return bit-identical answers for a fixed seed.

// source is one request's utility support as the mechanisms read it. cv is
// the cache entry behind sc, or nil when sc streams from the kernel.
type source struct {
	sc    stream.Scorer
	cv    *cachedVector
	ncand int
	umax  float64
}

// cachedScorer is the pooled Slice that feeds a cache entry to the
// streaming mechanisms, so a cache hit allocates nothing.
type cachedScorer struct{ stream.Slice }

var cachedScorers = stream.NewPool("socialrec.cached", func() *cachedScorer { return new(cachedScorer) })

// Close implements stream.Scorer by returning the scorer to its pool. A
// served entry's support is never empty, so a nil Val marks a closed
// scorer and keeps Close idempotent.
func (c *cachedScorer) Close() {
	if c.Val == nil {
		return
	}
	c.Slice = stream.Slice{}
	cachedScorers.Put(c)
}

// openSource checks the target and opens its support in the order the
// errors are reported — target range, utility kernel, no positive-utility
// candidate — all before any randomness is drawn. materialize forces the
// cached-entry form (the smoothing top-k needs closed-form probabilities).
// The caller closes src.sc.
func (r *Recommender) openSource(st *snapState, target int, materialize bool) (source, error) {
	if materialize || r.cache != nil {
		cv, err := r.vector(st, target)
		if err != nil {
			return source{}, err
		}
		sc := cachedScorers.Get()
		sc.Slice = cv.slice()
		return source{sc: sc, cv: cv, ncand: cv.ncand, umax: cv.umax}, nil
	}
	if target < 0 || target >= st.snap.NumNodes() {
		return source{}, fmt.Errorf("%w: %d", ErrBadTarget, target)
	}
	sc, err := r.util.StreamSparse(st.snap, target)
	if err != nil {
		return source{}, err
	}
	umax := streamMax(sc)
	if umax == 0 {
		sc.Close()
		return source{}, fmt.Errorf("%w: node %d", ErrNoCandidates, target)
	}
	return source{sc: sc, ncand: utility.CandidateCount(st.snap, target), umax: umax}, nil
}

// recommendation resolves a pick to the released Recommendation. Support
// picks arrive resolved; a tail pick merges the complement against the
// target's current out-row, by block search over a cache entry and by a
// walk of a kernel stream. That row is the one the source was
// computed from: a cache entry is only ever served at an epoch whose
// snapshot leaves its target's row unchanged (a delta endpoint at
// distance 0 always lands in the touched set; see invalidate.go).
func (src source) recommendation(snap graph.Store, target int, p mechanism.StreamPick) Recommendation {
	node, util := int(p.Node), p.Util
	if p.IsTail {
		if src.cv != nil {
			node = cachedComplementSelect(snap.Out(target), &src.cv.ids, target, p.Tail)
		} else {
			node = streamComplementSelect(snap.Out(target), src.sc, target, p.Tail)
		}
		util = 0
	}
	return Recommendation{Target: target, Node: node, Utility: util, MaxUtility: src.umax}
}

// streamMax returns the maximum streamed value floored at zero (the
// utility.Max / SparseVec semantics: the implicit zero tail participates),
// leaving the scorer rewound for the next pass.
func streamMax(sc stream.Scorer) float64 {
	sc.Reset()
	var m float64
	for {
		_, x, ok := sc.Next()
		if !ok {
			return m
		}
		if x > m {
			m = x
		}
	}
}

// streamComplementSelect resolves a mechanism's zero-tail rank to a node
// ID: the rank-th (0-based, ascending) node that is neither the target,
// nor one of its out-neighbors (row), nor in the stream's support. A
// three-way ascending merge of those disjoint sorted sets walks the
// answer up: each skipped ID at or below the running answer shifts it up
// by one; the first above it ends the walk.
func streamComplementSelect(row []int32, sc stream.Scorer, target, rank int) int {
	sc.Reset()
	ans := int32(rank)
	tgt := int32(target)
	i := 0
	sIdx, _, sOK := sc.Next()
	for {
		s := int32(math.MaxInt32)
		src := 0
		if tgt >= 0 {
			s, src = tgt, 1
		}
		if i < len(row) && row[i] < s {
			s, src = row[i], 2
		}
		if sOK && sIdx < s {
			s, src = sIdx, 3
		}
		if src == 0 || s > ans {
			return int(ans)
		}
		ans++
		switch src {
		case 1:
			tgt = -1
		case 2:
			i++
		case 3:
			sIdx, _, sOK = sc.Next()
		}
	}
}

// cachedComplementSelect is streamComplementSelect over a cache entry's
// gap-coded support, in O(log nnz) block probes instead of a walk of the
// whole support. Below an ID x lie x − |support < x| − |row < x| −
// [target < x] zero-tail candidates, and this count grows with x. Each
// block starts at an absolute ID with b·IDBlock support entries below it,
// so a binary search over the block starts finds the last block starting
// at or below the answer, and one merge of that block against the row
// finishes the pick.
func cachedComplementSelect(row []int32, ids *stream.IDs, target, rank int) int {
	lo, hi := 0, len(ids.Off)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		start := ids.At(mid * stream.IDBlock)
		i, _ := slices.BinarySearch(row, start)
		free := int(start) - mid*stream.IDBlock - i
		if target < int(start) {
			free--
		}
		if free <= rank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Every support entry and row entry below block lo-1's start is
	// skipped up front, and the merge picks up exactly where a full walk
	// would stand. A target below that start is still merged: it lies at
	// or below the answer, so the merge skips it too.
	var buf [stream.IDBlock]int32
	var blk []int32
	skipped := 0
	if lo > 0 {
		blk = ids.Block(lo-1, &buf)
		i, _ := slices.BinarySearch(row, blk[0])
		row = row[i:]
		skipped = (lo-1)*stream.IDBlock + i
	}
	return complementMerge(row, blk, int32(target), rank+skipped)
}

// complementMerge is streamComplementSelect's merge over a materialized
// support span, starting from the answer ans: the rank plus the IDs
// already skipped.
func complementMerge(row, supp []int32, tgt int32, ans int) int {
	a := int32(ans)
	for {
		s := int32(math.MaxInt32)
		src := 0
		if tgt >= 0 {
			s, src = tgt, 1
		}
		if len(row) > 0 && row[0] < s {
			s, src = row[0], 2
		}
		if len(supp) > 0 && supp[0] < s {
			s, src = supp[0], 3
		}
		if src == 0 || s > a {
			return int(a)
		}
		a++
		switch src {
		case 1:
			tgt = -1
		case 2:
			row = row[1:]
		case 3:
			supp = supp[1:]
		}
	}
}

// PoolStat is one pooled-scratch pool's lifetime counters; see
// StreamPoolStats.
type PoolStat = stream.PoolStat

// StreamPoolStats reports the per-pool get/put/new counters of every
// pooled-scratch pool the streaming pipeline draws from (utility
// accumulators, exclusion marks, scorers, mechanism scratch). A news count
// that keeps growing under steady load means scratch is leaking past its
// request instead of being returned — the serving layer exposes these next
// to the cache counters on /healthz for exactly that check.
func StreamPoolStats() []PoolStat {
	return stream.Stats()
}
