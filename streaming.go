package socialrec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

// Streaming per-request pipeline. When no cache is enabled (nothing to
// share across requests), a request never materializes its utility vector:
// the utility kernel's stream.Scorer feeds the mechanism's streaming
// consumer directly, and the only per-request state beyond pooled scratch
// is a handful of running scalars. The streamed draw is
// bit-identical to the materialized one for a fixed seed — every stage
// performs the same floating-point operations in the same order and
// consumes the RNG in the same sequence — so this is purely a memory/alloc
// optimization of the pre-noise stage and leaves the ε-DP guarantee
// untouched (see the doc.go "Streaming pipeline" section).

// streamingEligible reports whether requests can take the fused streaming
// path: no cache (it amortizes materialized vectors across requests, which
// streaming by design never builds), streaming not disabled, and both
// stages able to stream.
func (r *Recommender) streamingEligible(st *snapState) (utility.Streamer, mechanism.StreamMechanism, bool) {
	if r.noStream || r.cache.Load() != nil {
		return nil, nil, false
	}
	su, ok := r.util.(utility.Streamer)
	if !ok {
		return nil, nil, false
	}
	sm, ok := st.mech.(mechanism.StreamMechanism)
	if !ok {
		return nil, nil, false
	}
	return su, sm, true
}

// supportSlices gathers the target's nonzero support into fresh
// caller-owned slices. It is the materialization point every shared
// consumer (cache fill, batch, Precompute) draws from: the pairs come off
// the utility's streaming kernel — the same stage graph fully streamed
// requests consume — counted first so the slices are allocated
// exactly-sized. Utilities that do not stream (external
// implementations) fall back to their own Sparse gather.
func (r *Recommender) supportSlices(st *snapState, target int) ([]int32, []float64, error) {
	su, ok := r.util.(utility.Streamer)
	if !ok {
		return r.util.Sparse(st.snap, target)
	}
	sc, err := su.StreamSparse(st.snap, target)
	if err != nil {
		return nil, nil, err
	}
	defer sc.Close()
	nnz := 0
	for {
		if _, _, ok := sc.Next(); !ok {
			break
		}
		nnz++
	}
	idx := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	sc.Reset()
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		idx = append(idx, i)
		val = append(val, x)
	}
	return idx, val, nil
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

// streamComplementSelect resolves a mechanism's zero-tail rank to a node ID
// without materializing the skip table: a three-way ascending merge of the
// target, its out-neighbor row, and the stream's support indices (the
// disjoint sorted sets whose union buildSkipTable gathers) feeds the linear
// form of complementSelect — each skipped ID at or below the running answer
// shifts it up by one; the first above it ends the walk.
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

// resolveStreamPick maps a streamed pick to (node ID, raw utility).
// Support picks arrived resolved during the mechanism's pass; tail picks
// walk the complement merge.
func resolveStreamPick(snap graph.Store, sc stream.Scorer, target int, p mechanism.StreamPick) (int, float64) {
	if !p.IsTail {
		return int(p.Node), p.Util
	}
	return streamComplementSelect(snap.Out(target), sc, target, p.Tail), 0
}

// recommendStreaming is the fused per-request path behind Recommend. The
// bool reports whether streaming was eligible; when true the result is
// final (success or error). Stage order mirrors the materialized path
// exactly: target range check, utility kernel, u_max == 0 negative-result
// check — all RNG-silent — then the mechanism's draw, then tail
// resolution.
func (r *Recommender) recommendStreaming(st *snapState, target int, rng *rand.Rand) (Recommendation, bool, error) {
	su, sm, ok := r.streamingEligible(st)
	if !ok {
		return Recommendation{}, false, nil
	}
	if target < 0 || target >= st.snap.NumNodes() {
		return Recommendation{}, true, fmt.Errorf("%w: %d", ErrBadTarget, target)
	}
	sc, err := su.StreamSparse(st.snap, target)
	if err != nil {
		return Recommendation{}, true, err
	}
	defer sc.Close()
	umax := streamMax(sc)
	if umax == 0 {
		return Recommendation{}, true, fmt.Errorf("%w: node %d", ErrNoCandidates, target)
	}
	pick, err := sm.RecommendStream(sc, utility.CandidateCount(st.snap, target), rng)
	if err != nil {
		return Recommendation{}, true, err
	}
	node, util := resolveStreamPick(st.snap, sc, target, pick)
	return Recommendation{Target: target, Node: node, Utility: util, MaxUtility: umax}, true, nil
}

// recommendTopKStreaming is the fused path behind RecommendTopK for the
// Laplace (one-pass noisy histogram into the shared bounded heap),
// exponential (peel over pooled gather), and non-private arms. The
// smoothing arm's without-replacement conditional draws need the full
// A_S(x') probability vector, so it stays materialized.
func (r *Recommender) recommendTopKStreaming(st *snapState, target, k int, rng *rand.Rand) ([]Recommendation, bool, error) {
	su, _, ok := r.streamingEligible(st)
	if !ok || r.kind == MechanismSmoothing {
		return nil, false, nil
	}
	if target < 0 || target >= st.snap.NumNodes() {
		return nil, true, fmt.Errorf("%w: %d", ErrBadTarget, target)
	}
	sc, err := su.StreamSparse(st.snap, target)
	if err != nil {
		return nil, true, err
	}
	defer sc.Close()
	umax := streamMax(sc)
	if umax == 0 {
		return nil, true, fmt.Errorf("%w: node %d", ErrNoCandidates, target)
	}
	ncand := utility.CandidateCount(st.snap, target)
	if k < 1 || k > ncand {
		return nil, true, fmt.Errorf("socialrec: k=%d outside [1, %d] for node %d", k, ncand, target)
	}
	var picks []mechanism.StreamPick
	switch r.kind {
	case MechanismLaplace:
		picks, err = mechanism.TopKLaplaceStream(r.epsilon, st.sens, sc, ncand, k, rng)
	case MechanismExponential:
		picks, err = mechanism.TopKPeelStream(r.epsilon, st.sens, sc, ncand, k, rng)
	default: // MechanismNone
		picks, err = mechanism.BestTopKStream(sc, ncand, k)
	}
	if err != nil {
		return nil, true, err
	}
	out := make([]Recommendation, len(picks))
	row := st.snap.Out(target)
	for i, p := range picks {
		node, util := int(p.Node), p.Util
		if p.IsTail {
			node, util = streamComplementSelect(row, sc, target, p.Tail), 0
		}
		out[i] = Recommendation{Target: target, Node: node, Utility: util, MaxUtility: umax}
	}
	slices.SortStableFunc(out, func(a, b Recommendation) int {
		switch {
		case a.Utility > b.Utility:
			return -1
		case a.Utility < b.Utility:
			return 1
		default:
			return 0
		}
	})
	return out, true, nil
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
