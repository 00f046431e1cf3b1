package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"socialrec/internal/stream"
)

// The sparse form of a utility vector. The paper's utilities are zero
// outside a target's few-hop neighborhood, so a vector is carried as its
// nonzero support plus an implicit tail of zero-utility candidates. Under
// the Definition 5 weighting every tail candidate shares the weight
// e^{(ε/Δf)·0}, and under noisy-max mechanisms the tail's maximum noisy
// score has a closed form, so draws cost O(nnz) instead of O(n). The draws
// themselves live in stream.go and read the support through a
// stream.Scorer; this file keeps what needs the support as a slice: the
// closed-form probabilities (SparseDistribution) behind exact expected
// accuracy (accuracy.go) and the DP audit (internal/dpcheck). The
// cacheable exponential CDF that serves cached draws (SparseCDF, a binary
// search over per-block prefix sums) is in cdf.go. Each selects from
// exactly the distribution the dense oracle in dense_test.go gives the
// expanded vector — the split into "support" and "tail" is pure
// bookkeeping, which is why the ε-DP guarantee carries over unchanged (the
// property and chi-squared tests in this package pin the equivalence).

// SparseVec is a utility vector in sparse form: the support (Code, Val)
// holds the nonzero utilities, one per entry or level-coded under the
// convention of package stream (the serving layer orders the entries by
// ascending candidate node ID, but any fixed order works), and N is the
// total candidate count — the remaining N-s.len() candidates implicitly
// have utility 0.
type SparseVec struct {
	Code []uint8
	Val  []float64
	N    int
}

// len returns the number of support entries.
func (s SparseVec) len() int { return stream.Len(s.Code, s.Val) }

// at returns support entry j's utility.
func (s SparseVec) at(j int) float64 { return stream.At(s.Code, s.Val, j) }

func (s SparseVec) validate() error {
	if s.N < 1 {
		return ErrEmpty
	}
	if s.len() > s.N {
		return fmt.Errorf("mechanism: sparse vector has %d nonzeros but only %d candidates", s.len(), s.N)
	}
	for _, x := range s.Val {
		if x < 0 {
			return ErrNegative
		}
	}
	if s.Code != nil && len(s.Val) > stream.MaxLevels {
		return fmt.Errorf("mechanism: sparse vector has %d levels, more than %d", len(s.Val), stream.MaxLevels)
	}
	for _, c := range s.Code {
		if int(c) >= len(s.Val) {
			return fmt.Errorf("mechanism: sparse vector code %d addresses only %d levels", c, len(s.Val))
		}
	}
	return nil
}

// tail returns the number of implicit zero-utility candidates.
func (s SparseVec) tail() int { return s.N - s.len() }

// max returns the maximum utility over all N candidates (including the
// implicit zeros, which can only matter when the support is empty).
func (s SparseVec) max() float64 {
	max := 0.0
	for j := range s.len() {
		if x := s.at(j); x > max {
			max = x
		}
	}
	return max
}

// Pick identifies the candidate selected by a cached CDF draw: either
// Support indexes the SparseVec's support entries, or (Support == -1) Tail
// is a rank in [0, N-s.len()) identifying which implicit zero-utility
// candidate won.
type Pick struct {
	Support int
	Tail    int
}

// TailPick builds a tail Pick.
func TailPick(rank int) Pick { return Pick{Support: -1, Tail: rank} }

// IsTail reports whether the pick selected a zero-utility candidate.
func (p Pick) IsTail() bool { return p.Support < 0 }

// SparseDistribution is implemented by mechanisms whose recommendation
// probabilities have a closed form: the masses of the support entries, in
// support order, and the one mass every zero-tail candidate shares, with
// Σ support + tail·count = 1. Expected accuracy and the DP audit read it.
type SparseDistribution interface {
	ProbabilitiesSparse(s SparseVec) (support []float64, tailEach float64, err error)
}

// Compile-time checks that every closed-form mechanism has a sparse form.
var (
	_ SparseDistribution = Exponential{}
	_ SparseDistribution = Best{}
	_ SparseDistribution = Uniform{}
	_ SparseDistribution = Smoothing{}
)

// ProbabilitiesSparse implements SparseDistribution: the Definition 5 law
// exp((ε/Δf)·u_i)/Z with the zero tail's shared probability in closed form.
func (e Exponential) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	if err := e.validate(); err != nil {
		return nil, 0, err
	}
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	scale := e.Epsilon / e.Sensitivity
	umax := s.max()
	support := make([]float64, s.len())
	var zs float64
	for i := range support {
		w := math.Exp(scale * (s.at(i) - umax))
		support[i] = w
		zs += w
	}
	tailWeight := math.Exp(-scale * umax)
	total := zs + float64(s.tail())*tailWeight
	for i := range support {
		support[i] /= total
	}
	return support, tailWeight / total, nil
}

// ProbabilitiesSparse implements SparseDistribution: mass 1 split uniformly
// over the maximum-utility candidates.
func (Best) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	support := make([]float64, s.len())
	umax := s.max()
	if umax == 0 {
		for i := range support {
			support[i] = 1 / float64(s.N)
		}
		return support, 1 / float64(s.N), nil
	}
	ties := 0
	for i := range support {
		if s.at(i) == umax {
			ties++
		}
	}
	for i := range support {
		if s.at(i) == umax {
			support[i] = 1 / float64(ties)
		}
	}
	return support, 0, nil
}

// ProbabilitiesSparse implements SparseDistribution.
func (Uniform) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	support := make([]float64, s.len())
	for i := range support {
		support[i] = 1 / float64(s.N)
	}
	return support, 1 / float64(s.N), nil
}

// ProbabilitiesSparse implements SparseDistribution when the base mechanism
// does: p”_i = (1-x)/n + x·p_i for the support, (1-x)/n + x·p_tail for each
// tail candidate.
func (s Smoothing) ProbabilitiesSparse(sv SparseVec) ([]float64, float64, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	base, ok := s.Base.(SparseDistribution)
	if !ok {
		return nil, 0, fmt.Errorf("mechanism: smoothing base %s has no sparse closed-form distribution", s.Base.Name())
	}
	support, tailEach, err := base.ProbabilitiesSparse(sv)
	if err != nil {
		return nil, 0, err
	}
	n := float64(sv.N)
	for i, pi := range support {
		support[i] = (1-s.X)/n + s.X*pi
	}
	return support, (1-s.X)/n + s.X*tailEach, nil
}

// TailTracker maps ranks in the shrinking remaining tail to ranks in the
// original tail as zero-utility candidates are drawn without replacement.
type TailTracker struct {
	chosen []int // original-tail ranks already taken, ascending
}

// Take converts a rank among the not-yet-taken tail candidates to its
// original-tail rank and records it.
func (t *TailTracker) Take(rank int) int {
	for _, c := range t.chosen {
		if c <= rank {
			rank++
		}
	}
	// Insert keeping the list sorted; k is tiny (top-k sizes).
	pos := len(t.chosen)
	for pos > 0 && t.chosen[pos-1] > rank {
		pos--
	}
	t.chosen = append(t.chosen, 0)
	copy(t.chosen[pos+1:], t.chosen[pos:])
	t.chosen[pos] = rank
	return rank
}

// distinctTailRanks samples j distinct uniform ranks from [0, m) in
// assignment order (the first rank receives the largest tail value, and so
// on): each successive rank is uniform over the not-yet-chosen ones, which
// is exactly the law of attaching the ordered tail order statistics to
// exchangeable candidates. Rejection sampling is O(j) in expectation for
// m >> j; a partial Fisher-Yates covers the dense case.
func distinctTailRanks(m, j int, rng *rand.Rand) []int {
	if m <= 4*j {
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < j; i++ {
			k := i + rng.Intn(m-i)
			perm[i], perm[k] = perm[k], perm[i]
		}
		return perm[:j]
	}
	out := make([]int, 0, j)
	seen := make(map[int]bool, j)
	for len(out) < j {
		r := rng.Intn(m)
		if seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}
