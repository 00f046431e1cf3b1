package socialrec

import (
	"fmt"
	"math/rand"
	"slices"

	"socialrec/internal/distribution"
	"socialrec/internal/mechanism"
)

// RecommendTopK returns k distinct private recommendations for the target,
// ordered by decreasing (internal) utility. The privacy cost of the whole
// set is the Recommender's ε:
//
//   - MechanismLaplace noises the utility vector once and releases the top
//     k of the noisy scores (one ε-DP histogram release + post-processing).
//   - MechanismExponential peels k sequential draws at ε/k each (sequential
//     composition).
//   - MechanismSmoothing mixes k uniform/top draws; by composition the set
//     costs k·ln(1+nx/(1-x)), so the per-construction x is derated to ε/k.
//   - MechanismNone returns the exact top k (no privacy).
//
// The Laplace, exponential and non-private arms run the streaming
// releases (mechanism.TopKLaplaceStream, TopKPeelStream, BestTopKStream)
// over the same source a single Recommend reads: the utility kernel, or
// the cached entry. The zero tail is sampled in closed form, so a k-set
// costs O(nnz + k) instead of O(n) per release. The smoothing arm needs
// the closed-form probabilities, so it always reads the gathered entry.
//
// The paper's Appendix A observes that multiple recommendations face
// strictly harsher accuracy limits than single ones; expect noticeably
// worse per-set accuracy as k grows.
//
// Like Recommend, the randomness is keyed by (seed, target, k), so a repeat
// returns the same set; use RecommendTopKWithRNG with r.RequestRNG() for
// independent draws.
func (r *Recommender) RecommendTopK(target, k int) ([]Recommendation, error) {
	return r.recommendTopK(target, k, distribution.SplitN(r.seed, "topk", target*1048576+k))
}

// RecommendTopKWithRNG is RecommendTopK with caller-supplied randomness.
func (r *Recommender) RecommendTopKWithRNG(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	return r.recommendTopK(target, k, rng)
}

func (r *Recommender) recommendTopK(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	st := r.state.Load()
	src, err := r.openSource(st, target, r.kind == MechanismSmoothing)
	if err != nil {
		return nil, err
	}
	defer src.sc.Close()
	if k < 1 || k > src.ncand {
		return nil, fmt.Errorf("socialrec: k=%d outside [1, %d] for node %d", k, src.ncand, target)
	}

	var picks []mechanism.StreamPick
	switch r.kind {
	case MechanismLaplace:
		picks, err = mechanism.TopKLaplaceStream(r.epsilon, st.sens, src.sc, src.ncand, k, rng)
	case MechanismExponential:
		picks, err = mechanism.TopKPeelStream(r.epsilon, st.sens, src.sc, src.ncand, k, rng)
	case MechanismSmoothing:
		picks, err = r.smoothingTopK(src.cv, k, rng)
	default: // MechanismNone
		picks, err = mechanism.BestTopKStream(src.sc, src.ncand, k)
	}
	if err != nil {
		return nil, err
	}

	out := make([]Recommendation, len(picks))
	for i, p := range picks {
		out[i] = src.recommendation(st.snap, target, p)
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
	return out, nil
}

// smoothingTopK draws k distinct candidates from A_S(x') without
// replacement, where x' is derated so that k-fold composition stays within
// the Recommender's ε. It computes the closed-form A_S(x') probabilities
// once and then draws from the distribution renormalized over the
// not-yet-chosen candidates — exactly the conditional law a rejection loop
// would converge to — in guaranteed O(k·nnz): the zero tail's candidates
// are exchangeable and share one probability, so the tail needs a mass
// comparison plus a uniform rank, never an O(n) scan.
func (r *Recommender) smoothingTopK(cv *cachedVector, k int, rng *rand.Rand) ([]mechanism.StreamPick, error) {
	x, err := mechanism.SmoothingXForEpsilon(r.epsilon/float64(k), cv.ncand)
	if err != nil {
		return nil, err
	}
	s := mechanism.Smoothing{X: x, Base: mechanism.Best{}}
	support, tailEach, err := s.ProbabilitiesSparse(cv.sparseVec())
	if err != nil {
		return nil, err
	}

	chosen := newBitset(len(support))
	var taken mechanism.TailTracker
	m := cv.ncand - len(support) // tail candidates still unchosen
	remaining := 1.0             // total probability mass of the unchosen candidates
	picks := make([]mechanism.StreamPick, 0, k)
	for len(picks) < k {
		t := rng.Float64() * remaining
		supportPick := -1
		var acc float64
		for i, pi := range support {
			if chosen.has(i) {
				continue
			}
			supportPick = i
			acc += pi
			if t < acc {
				break
			}
		}
		if (t >= acc || supportPick < 0) && m > 0 {
			// The draw landed in the tail mass (or no unchosen support
			// remains): a uniform rank picks among the exchangeable
			// zero-utility candidates.
			rank := int((t - acc) / tailEach)
			if rank >= m {
				rank = m - 1 // rounding falls through to the last tail slot
			}
			if rank < 0 {
				rank = 0
			}
			picks = append(picks, mechanism.StreamPick{IsTail: true, Tail: taken.Take(rank)})
			m--
			remaining -= tailEach
			continue
		}
		// supportPick falls through to the last unchosen support candidate
		// when floating-point rounding leaves t marginally above the
		// accumulated mass.
		chosen.set(supportPick)
		remaining -= support[supportPick]
		picks = append(picks, mechanism.StreamPick{Node: cv.ids.At(supportPick), Util: cv.at(supportPick)})
	}
	return picks, nil
}

// bitset is a dense bit vector used to mark already-chosen candidates.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
