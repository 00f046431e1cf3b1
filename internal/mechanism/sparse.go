package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"socialrec/internal/distribution"
	"socialrec/internal/stats"
)

// Sparse serving entry points. The paper's utilities are zero outside a
// target's few-hop neighborhood, so the serving layer hands mechanisms a
// utility vector in sparse form: the nonzero support plus an implicit tail
// of zero-utility candidates. Under the Definition 5 weighting every tail
// candidate shares the same weight e^{(ε/Δf)·0}, and under noisy-max
// mechanisms the tail's maximum noisy score has a closed form, so a draw
// costs O(nnz) (or O(log nnz) from a cached CDF) instead of O(n). Every
// sparse entry point selects from exactly the same output distribution as
// its dense counterpart on the expanded vector — the split into "support"
// and "tail" is pure bookkeeping, which is why the ε-DP guarantee carries
// over unchanged (the property and chi-squared tests in this package pin
// the equivalence).

// SparseVec is a utility vector in sparse form: Val holds the nonzero
// utilities (the serving layer orders them by ascending candidate node ID,
// but any fixed order works), and N is the total candidate count — the
// remaining N-len(Val) candidates implicitly have utility 0.
type SparseVec struct {
	Val []float64
	N   int
}

func (s SparseVec) validate() error {
	if s.N < 1 {
		return ErrEmpty
	}
	if len(s.Val) > s.N {
		return fmt.Errorf("mechanism: sparse vector has %d nonzeros but only %d candidates", len(s.Val), s.N)
	}
	for _, x := range s.Val {
		if x < 0 {
			return ErrNegative
		}
	}
	return nil
}

// tail returns the number of implicit zero-utility candidates.
func (s SparseVec) tail() int { return s.N - len(s.Val) }

// max returns the maximum utility over all N candidates (including the
// implicit zeros, which can only matter when the support is empty).
func (s SparseVec) max() float64 {
	max := 0.0
	for _, x := range s.Val {
		if x > max {
			max = x
		}
	}
	return max
}

// Pick identifies the candidate selected by a sparse draw: either Support
// indexes into SparseVec.Val, or (Support == -1) Tail is a rank in
// [0, N-len(Val)) identifying which implicit zero-utility candidate won.
// The serving layer maps a tail rank back to a node ID with an O(log)
// order-statistic lookup over its exclusion table.
type Pick struct {
	Support int
	Tail    int
}

// TailPick builds a tail Pick.
func TailPick(rank int) Pick { return Pick{Support: -1, Tail: rank} }

// IsTail reports whether the pick selected a zero-utility candidate.
func (p Pick) IsTail() bool { return p.Support < 0 }

// uniformPick maps a uniform index over all N candidates onto a Pick,
// identifying the first len(Val) candidates with the support. Any fixed
// bijection yields the uniform distribution over candidates; this one is
// O(1).
func uniformPick(s SparseVec, j int) Pick {
	if j < len(s.Val) {
		return Pick{Support: j}
	}
	return TailPick(j - len(s.Val))
}

// SparseMechanism is implemented by mechanisms that can draw directly from
// the sparse form. RecommendSparse selects from the same distribution as
// Recommend on the expanded dense vector.
type SparseMechanism interface {
	Mechanism
	RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error)
}

// SparseDistribution is the sparse counterpart of Distribution: the
// closed-form recommendation probabilities as (per-support-entry, shared
// per-tail-candidate) masses, with Σ support + tail·count = 1.
type SparseDistribution interface {
	ProbabilitiesSparse(s SparseVec) (support []float64, tailEach float64, err error)
}

// Compile-time checks that every built-in mechanism serves sparsely.
var (
	_ SparseMechanism    = Exponential{}
	_ SparseMechanism    = GumbelMax{}
	_ SparseMechanism    = Laplace{}
	_ SparseMechanism    = Best{}
	_ SparseMechanism    = Uniform{}
	_ SparseMechanism    = Smoothing{}
	_ SparseDistribution = Exponential{}
	_ SparseDistribution = GumbelMax{}
	_ SparseDistribution = Best{}
	_ SparseDistribution = Uniform{}
	_ SparseDistribution = Smoothing{}
)

// SparseCDF is the cacheable sparse analogue of Exponential.CDF: the
// cumulative unnormalized weights of the support plus the closed-form mass
// of the zero tail. A cached draw costs O(log nnz) instead of the O(n)
// dense weight pass.
type SparseCDF struct {
	// Support[i] = Σ_{j<=i} exp(scale·(Val_j - u_max)).
	Support []float64
	// TailWeight = exp(-scale·u_max), the weight shared by every
	// zero-utility candidate.
	TailWeight float64
	// Tail is the number of zero-utility candidates.
	Tail int
	// Total = Support mass + Tail·TailWeight.
	Total float64
}

// Bytes returns the approximate memory footprint of the cached CDF.
func (c *SparseCDF) Bytes() int { return 8*len(c.Support) + 24 }

// buildSparseCDF computes the cumulative support weights into dst (pooled
// or freshly allocated by the caller) and fills the tail closed form.
func buildSparseCDF(dst []float64, s SparseVec, scale float64) SparseCDF {
	c := SparseCDF{Tail: s.tail()}
	var zs float64
	if len(s.Val) > 0 {
		c.Support = appendCDF(dst, s.Val, scale)
		zs = c.Support[len(c.Support)-1]
	}
	c.TailWeight = math.Exp(-scale * s.max())
	c.Total = zs + float64(c.Tail)*c.TailWeight
	return c
}

// SparseCDF returns the cacheable two-part CDF for the sparse vector.
func (e Exponential) SparseCDF(s SparseVec) (*SparseCDF, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := buildSparseCDF(make([]float64, 0, len(s.Val)), s, e.Epsilon/e.Sensitivity)
	return &c, nil
}

// SampleSparseCDF draws a candidate from a precomputed sparse CDF with a
// single uniform variate, the two-stage draw of the sparse exponential
// mechanism: the variate first lands in either the support mass or the
// closed-form tail mass, then resolves by binary search over the support
// CDF or by a uniform rank among the tail's interchangeable zero-utility
// candidates. When the tail is empty this is bit-identical to SampleCDF on
// the dense CDF (same accumulated weights, same single rng.Float64(), same
// inversion), so cached sparse serving reproduces cached dense serving
// draw-for-draw.
func SampleSparseCDF(c *SparseCDF, rng *rand.Rand) Pick {
	target := rng.Float64() * c.Total
	var zs float64
	if len(c.Support) > 0 {
		zs = c.Support[len(c.Support)-1]
	}
	if target < zs {
		lo, hi := 0, len(c.Support)-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.Support[mid] > target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return Pick{Support: lo}
	}
	if c.Tail == 0 {
		// Rounding fell through the support mass; mirror SampleCDF by
		// resolving to the last candidate.
		return Pick{Support: len(c.Support) - 1}
	}
	rank := int((target - zs) / c.TailWeight)
	if rank >= c.Tail {
		rank = c.Tail - 1 // rounding falls through to the last tail slot
	}
	return TailPick(rank)
}

// RecommendSparse implements SparseMechanism: the two-stage draw over
// (support CDF, closed-form zero-tail mass), O(nnz) with pooled scratch.
func (e Exponential) RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error) {
	if err := e.validate(); err != nil {
		return Pick{}, err
	}
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	handle, w := getScratch(len(s.Val))
	defer putScratch(handle)
	c := buildSparseCDF(w, s, e.Epsilon/e.Sensitivity)
	return SampleSparseCDF(&c, rng), nil
}

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
	support := make([]float64, len(s.Val))
	var zs float64
	for i, x := range s.Val {
		w := math.Exp(scale * (x - umax))
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

// RecommendSparse implements SparseMechanism for the Gumbel-max ablation:
// the maximum of m standard Gumbel variates is ln(m) plus a standard
// Gumbel, so the whole zero tail competes with a single closed-form score
// and a uniform rank decides which tail candidate carried it.
func (g GumbelMax) RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error) {
	if !(g.Epsilon > 0) {
		return Pick{}, ErrBadEpsilon
	}
	if !(g.Sensitivity > 0) {
		return Pick{}, ErrBadSens
	}
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	scale := g.Epsilon / g.Sensitivity
	best := Pick{Support: 0}
	bestVal := math.Inf(-1)
	for i, x := range s.Val {
		if v := scale*x + gumbel(rng); v > bestVal {
			best = Pick{Support: i}
			bestVal = v
		}
	}
	if m := s.tail(); m > 0 {
		if v := math.Log(float64(m)) + gumbel(rng); v > bestVal {
			return TailPick(rng.Intn(m)), nil
		}
	}
	return best, nil
}

// ProbabilitiesSparse implements SparseDistribution via the exact
// Gumbel-max identity with the Exponential mechanism.
func (g GumbelMax) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	return Exponential(g).ProbabilitiesSparse(s)
}

// RecommendSparse implements SparseMechanism: noisy argmax where the whole
// zero tail is represented by the closed-form maximum of its m independent
// Laplace variates (distribution.Laplace.SampleMax); if the tail wins, its
// candidates are exchangeable, so a uniform rank identifies the winner.
func (l Laplace) RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error) {
	if err := l.validate(); err != nil {
		return Pick{}, err
	}
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	noise := distribution.Laplace{Loc: 0, Scale: l.Sensitivity / l.Epsilon}
	best := Pick{Support: 0}
	bestVal := math.Inf(-1)
	for i, x := range s.Val {
		if v := x + noise.Sample(rng); v > bestVal {
			best = Pick{Support: i}
			bestVal = v
		}
	}
	if m := s.tail(); m > 0 {
		if v := noise.SampleMax(m, rng); v > bestVal {
			return TailPick(rng.Intn(m)), nil
		}
	}
	return best, nil
}

// RecommendSparse implements SparseMechanism: R_best never recommends a
// zero-utility candidate while a positive one exists, so the draw reduces
// to an argmax over the support (ties uniform); with an all-zero vector
// every candidate ties and the pick is uniform over all N.
func (Best) RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error) {
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	if s.max() == 0 {
		if rng == nil {
			return uniformPick(s, 0), nil
		}
		return uniformPick(s, rng.Intn(s.N)), nil
	}
	return Pick{Support: argmax(s.Val, rng)}, nil
}

// ProbabilitiesSparse implements SparseDistribution: mass 1 split uniformly
// over the maximum-utility candidates.
func (Best) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	support := make([]float64, len(s.Val))
	umax := s.max()
	if umax == 0 {
		for i := range support {
			support[i] = 1 / float64(s.N)
		}
		return support, 1 / float64(s.N), nil
	}
	ties := 0
	for _, x := range s.Val {
		if x == umax {
			ties++
		}
	}
	for i, x := range s.Val {
		if x == umax {
			support[i] = 1 / float64(ties)
		}
	}
	return support, 0, nil
}

// RecommendSparse implements SparseMechanism.
func (Uniform) RecommendSparse(s SparseVec, rng *rand.Rand) (Pick, error) {
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	return uniformPick(s, rng.Intn(s.N)), nil
}

// ProbabilitiesSparse implements SparseDistribution.
func (Uniform) ProbabilitiesSparse(s SparseVec) ([]float64, float64, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	support := make([]float64, len(s.Val))
	for i := range support {
		support[i] = 1 / float64(s.N)
	}
	return support, 1 / float64(s.N), nil
}

// RecommendSparse implements SparseMechanism: the biased coin picks between
// a sparse base draw and a uniform candidate — the uniform arm costs O(1)
// regardless of n.
func (s Smoothing) RecommendSparse(sv SparseVec, rng *rand.Rand) (Pick, error) {
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	if err := sv.validate(); err != nil {
		return Pick{}, err
	}
	if rng.Float64() < s.X {
		base, ok := s.Base.(SparseMechanism)
		if !ok {
			return Pick{}, fmt.Errorf("mechanism: smoothing base %s has no sparse draw", s.Base.Name())
		}
		return base.RecommendSparse(sv, rng)
	}
	return uniformPick(sv, rng.Intn(sv.N)), nil
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

// ExpectedAccuracySparse is ExpectedAccuracy over the sparse form: the zero
// tail contributes no expected utility, so only the support terms enter the
// Definition 2 sum.
func ExpectedAccuracySparse(d SparseDistribution, s SparseVec) (float64, error) {
	umax := s.max()
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	support, _, err := d.ProbabilitiesSparse(s)
	if err != nil {
		return 0, err
	}
	terms := make([]float64, len(s.Val))
	for i := range s.Val {
		terms[i] = support[i] * s.Val[i]
	}
	return stats.Sum(terms) / umax, nil
}

// MonteCarloAccuracySparse estimates expected accuracy from sparse draws,
// mirroring MonteCarloAccuracy (tail picks attain utility 0).
func MonteCarloAccuracySparse(m SparseMechanism, s SparseVec, trials int, rng *rand.Rand) (float64, error) {
	if trials < 1 {
		trials = DefaultLaplaceTrials
	}
	umax := s.max()
	if umax == 0 {
		return 0, ErrNoCandidates
	}
	var sum, comp float64
	for t := 0; t < trials; t++ {
		pick, err := m.RecommendSparse(s, rng)
		if err != nil {
			return 0, err
		}
		var u float64
		if !pick.IsTail() {
			u = s.Val[pick.Support]
		}
		y := u - comp
		acc := sum + y
		comp = (acc - sum) - y
		sum = acc
	}
	return sum / (float64(trials) * umax), nil
}

// tailTracker maps ranks in the shrinking remaining tail to ranks in the
// original tail as zero-utility candidates are drawn without replacement.
type TailTracker struct {
	chosen []int // original-tail ranks already taken, ascending
}

// take converts a rank among the not-yet-taken tail candidates to its
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

// TopKLaplaceSparse is TopKLaplace over the sparse form: the support is
// noised individually while the zero tail contributes its top min(k, m)
// order statistics in closed form — the j-th largest of m iid uniforms is
// sampled sequentially as U_(j) = U_(j-1)·U^{1/(m-j+1)} in log space and
// pushed through the Laplace quantile, and the ranks carrying those values
// are a uniform distinct sample by exchangeability. Total cost O(nnz + k)
// instead of O(n). Results are ordered by decreasing noisy utility, exactly
// as the dense release.
func TopKLaplaceSparse(eps, sens float64, s SparseVec, k int, rng *rand.Rand) ([]Pick, error) {
	if !(eps > 0) {
		return nil, ErrBadEpsilon
	}
	if !(sens > 0) {
		return nil, ErrBadSens
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > s.N {
		return nil, fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, s.N)
	}
	noise := distribution.Laplace{Loc: 0, Scale: sens / eps}
	type scored struct {
		pick Pick
		v    float64
	}
	m := s.tail()
	j := min(k, m)
	all := make([]scored, 0, len(s.Val)+j)
	for i, x := range s.Val {
		all = append(all, scored{Pick{Support: i}, x + noise.Sample(rng)})
	}
	if j > 0 {
		ranks := distinctTailRanks(m, j, rng)
		logQ := 0.0 // log of the running top uniform order statistic
		for t := 0; t < j; t++ {
			u := rng.Float64()
			if u == 0 {
				u = math.Nextafter(0, 1)
			}
			logQ += math.Log(u) / float64(m-t)
			all = append(all, scored{TailPick(ranks[t]), noise.QuantileLog(logQ)})
		}
	}
	// Select the k best by descending noisy score via the bounded heap the
	// dense release uses; ties have probability zero under continuous noise.
	xs := make([]float64, len(all))
	for i := range all {
		xs[i] = all[i].v
	}
	top := TopIndices(xs, k)
	out := make([]Pick, k)
	for i, t := range top {
		out[i] = all[t].pick
	}
	return out, nil
}

// TopKPeelSparse is TopKPeel over the sparse form: k sequential sparse
// exponential draws without replacement at ε/k each. Support picks are
// swap-removed; tail picks shrink the implicit tail, with ranks remapped to
// the original tail so the caller's candidate mapping stays fixed. Results
// are in selection order with original-tail ranks.
func TopKPeelSparse(eps, sens float64, s SparseVec, k int, rng *rand.Rand) ([]Pick, error) {
	ps := getPeelScratch()
	defer peelPool.Put(ps)
	ps.vals = append(ps.vals, s.Val...)
	for i := range s.Val {
		ps.ids = append(ps.ids, int32(i))
	}
	if err := ps.peel(eps, sens, s.N, k, rng); err != nil {
		return nil, err
	}
	out := make([]Pick, len(ps.picks))
	for i, p := range ps.picks {
		if p.IsTail {
			out[i] = TailPick(p.Tail)
		} else {
			out[i] = Pick{Support: int(p.Node)}
		}
	}
	return out, nil
}
