package socialrec

import (
	"sync/atomic"

	"socialrec/internal/par"
)

// Batch serving: experiment sweeps, offline evaluation, and cache warming
// all evaluate many targets against the same immutable snapshot. Two
// structural facts make the batch path faster than a sequential loop over
// Recommend without changing a single answer:
//
//   - Each target draws from its own split RNG (SplitN(seed, label,
//     target)), so Recommend(t) is a pure function of the snapshot epoch
//     and t. Duplicate targets inside one batch — the common shape of real
//     batch traffic, where hot users repeat — are therefore computed once
//     and the result copied into every duplicate slot, bit-identically.
//   - The per-target work (a graph scan plus a mechanism draw) is uniform
//     and embarrassingly parallel, so the unique targets fan out across
//     contiguous chunks, one per core (par.ForEachChunked), instead of
//     paying a channel round-trip per index.
//
// Results are positionally aligned with targets and identical to a
// sequential loop whatever the worker interleaving or duplicate structure.

// BatchResult is the outcome of one target of a BatchRecommend call.
type BatchResult struct {
	// Recommendation is valid when Err is nil.
	Recommendation
	// Err is the per-target failure (ErrBadTarget, ErrNoCandidates, ...);
	// one hopeless target does not fail the rest of the batch.
	Err error
}

// dedupTargets maps a batch onto its distinct targets: uniq holds each
// distinct target in first-appearance order, and slot[pos] indexes the
// uniq entry for targets[pos]. With no duplicates len(uniq) == len(targets)
// and the mapping is the identity.
func dedupTargets(targets []int) (uniq []int, slot []int) {
	slot = make([]int, len(targets))
	index := make(map[int]int, len(targets))
	for pos, t := range targets {
		i, ok := index[t]
		if !ok {
			i = len(uniq)
			index[t] = i
			uniq = append(uniq, t)
		}
		slot[pos] = i
	}
	return uniq, slot
}

// BatchRecommend returns one private recommendation per target, evaluated
// in parallel across runtime.GOMAXPROCS(0) workers with duplicate targets
// computed once. Results are positionally aligned with targets and
// identical to calling Recommend on each target sequentially (a repeated
// target yields the same draw either way, so deduplication is pure
// post-processing). The privacy cost composes additively over the distinct
// targets, ε per distinct target, exactly as for individual Recommend
// calls.
func (r *Recommender) BatchRecommend(targets []int) []BatchResult {
	uniq, slot := dedupTargets(targets)
	res := make([]BatchResult, len(uniq))
	par.ForEachChunked(len(uniq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec, err := r.Recommend(uniq[i])
			res[i] = BatchResult{Recommendation: rec, Err: err}
		}
	})
	if len(uniq) == len(targets) {
		return res
	}
	out := make([]BatchResult, len(targets))
	for pos := range targets {
		out[pos] = res[slot[pos]]
	}
	return out
}

// BatchTopKResult is the outcome of one target of a BatchRecommendTopK
// call.
type BatchTopKResult struct {
	// Recommendations is valid when Err is nil.
	Recommendations []Recommendation
	// Err is the per-target failure, as in BatchResult.
	Err error
}

// BatchRecommendTopK is BatchRecommend for k-recommendation lists. Every
// result slot owns its slice: duplicate targets share the computation but
// not the backing array, matching a sequential loop's aliasing.
func (r *Recommender) BatchRecommendTopK(targets []int, k int) []BatchTopKResult {
	uniq, slot := dedupTargets(targets)
	res := make([]BatchTopKResult, len(uniq))
	par.ForEachChunked(len(uniq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recs, err := r.RecommendTopK(uniq[i], k)
			res[i] = BatchTopKResult{Recommendations: recs, Err: err}
		}
	})
	if len(uniq) == len(targets) {
		return res
	}
	out := make([]BatchTopKResult, len(targets))
	used := make([]bool, len(uniq))
	for pos := range targets {
		br := res[slot[pos]]
		if used[slot[pos]] && br.Recommendations != nil {
			br.Recommendations = append([]Recommendation(nil), br.Recommendations...)
		}
		used[slot[pos]] = true
		out[pos] = br
	}
	return out
}

// Accounted batch serving: the Accountant's batch methods run one
// reservation round up front — charging every target against its own
// principal's budget and the global budget in one sequential pass — and
// then fan only the granted targets across the worker pool. Refusal is
// per-target, not all-or-nothing: an exhausted principal gets
// ErrBudgetExhausted in its slot while every other target proceeds, so one
// hot user cannot fail a whole evaluation sweep. Targets whose evaluation
// fails after being granted are refunded individually (each refund cancels
// exactly its own reservation). Accounting stays per slot — duplicates of
// one target are each charged, conservatively — even though their shared
// evaluation runs once.

// BatchRecommend returns one private recommendation per target, charged
// and evaluated as described above. Results are positionally aligned with
// targets; granted targets draw from the same split RNG as individual
// Recommend calls, so their results are bit-identical to a sequential
// loop.
func (a *Accountant) BatchRecommend(targets []int) []BatchResult {
	out := make([]BatchResult, len(targets))
	eps := a.rec.Epsilon()
	tokens := make([]reservation, len(targets))
	granted := make([]bool, len(targets))
	for i, t := range targets {
		tok, err := a.charge(principalOf(t), t, 1, eps)
		if err != nil {
			out[i].Err = err
			continue
		}
		tokens[i], granted[i] = tok, true
	}
	uniq, slot := dedupTargets(targets)
	need := make([]bool, len(uniq))
	for pos := range targets {
		if granted[pos] {
			need[slot[pos]] = true
		}
	}
	res := make([]BatchResult, len(uniq))
	par.ForEachChunked(len(uniq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !need[i] {
				continue
			}
			rec, err := a.rec.Recommend(uniq[i])
			res[i] = BatchResult{Recommendation: rec, Err: err}
		}
	})
	for pos := range targets {
		if !granted[pos] {
			continue
		}
		br := res[slot[pos]]
		if br.Err != nil {
			a.refund(tokens[pos])
			out[pos] = BatchResult{Err: br.Err}
			continue
		}
		out[pos] = br
	}
	return out
}

// BatchRecommendTopK is the Accountant's BatchRecommend for
// k-recommendation lists; each granted target is charged one ε for its
// whole list, exactly as RecommendTopK.
func (a *Accountant) BatchRecommendTopK(targets []int, k int) []BatchTopKResult {
	out := make([]BatchTopKResult, len(targets))
	eps := a.rec.Epsilon()
	tokens := make([]reservation, len(targets))
	granted := make([]bool, len(targets))
	for i, t := range targets {
		tok, err := a.charge(principalOf(t), t, k, eps)
		if err != nil {
			out[i].Err = err
			continue
		}
		tokens[i], granted[i] = tok, true
	}
	uniq, slot := dedupTargets(targets)
	need := make([]bool, len(uniq))
	for pos := range targets {
		if granted[pos] {
			need[slot[pos]] = true
		}
	}
	res := make([]BatchTopKResult, len(uniq))
	par.ForEachChunked(len(uniq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !need[i] {
				continue
			}
			recs, err := a.rec.RecommendTopK(uniq[i], k)
			res[i] = BatchTopKResult{Recommendations: recs, Err: err}
		}
	})
	used := make([]bool, len(uniq))
	for pos := range targets {
		if !granted[pos] {
			continue
		}
		br := res[slot[pos]]
		if br.Err != nil {
			a.refund(tokens[pos])
			out[pos] = BatchTopKResult{Err: br.Err}
			continue
		}
		if used[slot[pos]] && br.Recommendations != nil {
			br.Recommendations = append([]Recommendation(nil), br.Recommendations...)
		}
		used[slot[pos]] = true
		out[pos] = br
	}
	return out
}

// Precompute warms the utility-vector cache for the given targets, fanning
// the deterministic pre-noise computation across runtime.GOMAXPROCS(0)
// workers (duplicate targets are computed at most once). It releases
// nothing (no mechanism draw happens), so it costs no privacy budget, and
// it does not touch the cache's hit/miss counters — /healthz hit rates
// keep reflecting serving traffic only. The return value is the number of
// targets now cached, counting each distinct target once and counting
// negative entries for hopeless targets; it is 0 when no cache is enabled
// (enable one with WithCache first).
func (r *Recommender) Precompute(targets []int) int {
	c := r.cache
	if c == nil {
		return 0
	}
	uniq, _ := dedupTargets(targets)
	st := r.state.Load()
	var warmed atomic.Int64
	par.ForEachChunked(len(uniq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			target := uniq[i]
			if target < 0 || target >= st.snap.NumNodes() {
				continue
			}
			if c.contains(st.epoch, target) {
				warmed.Add(1)
				continue
			}
			if _, err := r.computeCached(st, c, target); err != nil {
				continue
			}
			warmed.Add(1)
		}
	})
	return int(warmed.Load())
}
