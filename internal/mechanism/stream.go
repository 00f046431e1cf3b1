package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"socialrec/internal/distribution"
	"socialrec/internal/stream"
)

// The draws. Every mechanism draws from a stream.Scorer — the pull
// iterator the utility kernels expose, or a stream.Slice over a cached
// support — so each private draw has exactly one implementation that its
// ε-DP argument is checked against. Consumers gather the support where the
// draw needs it (the exponential mechanism's weight normalization needs
// the max before the weights, so it gathers the stream once into pooled
// scratch and weighs it there) and stream it where they do not (noisy max
// folds the per-candidate noise into a running best). The zero tail is
// never streamed: it is sampled in closed form. The only other draw is the
// cached exponential CDF (SampleSparseCDF), which is bit-identical to
// RecommendStream for a fixed seed. Over a stream of every candidate (no
// tail) each draw is bit-identical to the naive dense draw over the same
// vector, the test oracle in dense_test.go.

// StreamPick is a streamed draw's result. Support picks arrive resolved —
// the winning candidate's node ID and raw utility were read off the stream
// during the pass — while tail picks carry a rank among the implicit
// zero-utility candidates for the caller to map to a node ID (it owns the
// candidate-domain bookkeeping).
type StreamPick struct {
	// Node and Util identify a support pick (IsTail false).
	Node int32
	Util float64
	// Tail is a rank in [0, N-nnz) identifying which zero-utility
	// candidate won (IsTail true).
	Tail   int
	IsTail bool
}

// StreamMechanism is a recommendation mechanism: it draws from a
// stream.Scorer over n total candidates (nonzero support streamed, the rest
// implicit zeros), selecting from the distribution the mechanism gives the
// expanded vector. Randomized mechanisms consume the provided RNG;
// deterministic ones ignore it.
type StreamMechanism interface {
	// Name returns a short stable identifier.
	Name() string
	RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error)
}

// Compile-time checks that every built-in mechanism streams.
var (
	_ StreamMechanism = Exponential{}
	_ StreamMechanism = Laplace{}
	_ StreamMechanism = Best{}
	_ StreamMechanism = Uniform{}
	_ StreamMechanism = Smoothing{}
)

// scanStream is SparseVec.validate over a stream: it rewinds, checks the
// same invariants with the same error precedence, and returns the support
// size and the maximum utility floored at zero (SparseVec.max semantics).
// Running validation as a dedicated first pass — before any noise is drawn
// — keeps the error paths RNG-silent.
func scanStream(sc stream.Scorer, n int) (nnz int, vmax float64, err error) {
	if n < 1 {
		return 0, 0, ErrEmpty
	}
	sc.Reset()
	neg := false
	for {
		_, x, ok := sc.Next()
		if !ok {
			break
		}
		nnz++
		if x < 0 {
			neg = true
		}
		if x > vmax {
			vmax = x
		}
	}
	if nnz > n {
		return nnz, vmax, fmt.Errorf("mechanism: sparse vector has %d nonzeros but only %d candidates", nnz, n)
	}
	if neg {
		return nnz, vmax, ErrNegative
	}
	return nnz, vmax, nil
}

// streamAt returns the (idx, val) pair at support position pos.
func streamAt(sc stream.Scorer, pos int) (int32, float64) {
	sc.Reset()
	for i := 0; ; i++ {
		idx, x, ok := sc.Next()
		if !ok {
			return 0, 0 // unreachable for pos < nnz; callers guarantee it
		}
		if i == pos {
			return idx, x
		}
	}
}

// resolveUniform maps a uniform index over all n candidates onto a
// StreamPick, identifying the first nnz candidates with the support. Any
// fixed bijection yields the uniform distribution over candidates.
func resolveUniform(sc stream.Scorer, j, nnz int) StreamPick {
	if j < nnz {
		idx, x := streamAt(sc, j)
		return StreamPick{Node: idx, Util: x}
	}
	return StreamPick{IsTail: true, Tail: j - nnz}
}

// RecommendStream implements StreamMechanism for the exponential mechanism
// as one round of the peel (see peelScratch.peel): the support is gathered
// once into pooled scratch, each weight exp(scale·(u_i - u_max)) is
// computed once, the support mass sums the stored weights, and — only
// when the single uniform variate lands in the support mass — a linear
// scan re-accumulates them until it crosses the draw. The running prefix
// reproduces SparseCDF's block sums and its in-block re-accumulation bit
// for bit, so the crossing finds the exact candidate SampleSparseCDF's
// block search finds, from the same rng.Float64(). Validation precedes
// the draw, so the error paths consume no randomness.
func (e Exponential) RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error) {
	ps := getPeelScratch()
	defer peelPool.Put(ps)
	ps.gather(sc)
	if err := ps.peel(e.Epsilon, e.Sensitivity, n, 1, rng); err != nil {
		return StreamPick{}, err
	}
	return ps.picks[0], nil
}

// RecommendStream implements StreamMechanism for the Laplace mechanism:
// one pass folds a Laplace variate per support entry into a running noisy
// max, then the tail's closed-form maximum (SampleMax) competes once.
func (l Laplace) RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error) {
	if err := l.validate(); err != nil {
		return StreamPick{}, err
	}
	nnz, _, err := scanStream(sc, n)
	if err != nil {
		return StreamPick{}, err
	}
	noise := distribution.Laplace{Loc: 0, Scale: l.Sensitivity / l.Epsilon}
	sc.Reset()
	var best StreamPick
	bestVal := math.Inf(-1)
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		if v := x + noise.Sample(rng); v > bestVal {
			best = StreamPick{Node: i, Util: x}
			bestVal = v
		}
	}
	if m := n - nnz; m > 0 {
		if v := noise.SampleMax(m, rng); v > bestVal {
			return StreamPick{IsTail: true, Tail: rng.Intn(m)}, nil
		}
	}
	return best, nil
}

// RecommendStream implements StreamMechanism for R_best, replicating
// argmax's per-tie RNG consumption over the support.
func (Best) RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error) {
	nnz, vmax, err := scanStream(sc, n)
	if err != nil {
		return StreamPick{}, err
	}
	if vmax == 0 {
		// Every candidate ties at zero: uniform over all n.
		j := 0
		if rng != nil {
			j = rng.Intn(n)
		}
		return resolveUniform(sc, j, nnz), nil
	}
	sc.Reset()
	i0, x0, _ := sc.Next() // nnz > 0 since vmax > 0
	best := StreamPick{Node: i0, Util: x0}
	bestVal := x0
	ties := 1
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		switch {
		case x > bestVal:
			best = StreamPick{Node: i, Util: x}
			bestVal = x
			ties = 1
		case x == bestVal:
			ties++
			if rng != nil && rng.Intn(ties) == 0 {
				best = StreamPick{Node: i, Util: x}
			}
		}
	}
	return best, nil
}

// RecommendStream implements StreamMechanism.
func (Uniform) RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error) {
	nnz, _, err := scanStream(sc, n)
	if err != nil {
		return StreamPick{}, err
	}
	return resolveUniform(sc, rng.Intn(n), nnz), nil
}

// RecommendStream implements StreamMechanism for the smoothing mechanism:
// the same biased coin, then either the base mechanism's streamed draw or
// an O(1) uniform pick.
func (s Smoothing) RecommendStream(sc stream.Scorer, n int, rng *rand.Rand) (StreamPick, error) {
	if err := s.validate(); err != nil {
		return StreamPick{}, err
	}
	nnz, _, err := scanStream(sc, n)
	if err != nil {
		return StreamPick{}, err
	}
	if rng.Float64() < s.X {
		return s.Base.RecommendStream(sc, n, rng)
	}
	return resolveUniform(sc, rng.Intn(n), nnz), nil
}

// TopKLaplaceStream returns k distinct candidates by adding Laplace(Δf/ε)
// noise to every utility once and taking the k largest noisy values (the
// Appendix A extension to multiple recommendations). The noisy vector is a
// single ε-differentially private histogram release, and selecting its top
// k is post-processing, so the whole k-set is ε-private — no
// per-recommendation budget split is needed. The support is noised
// individually while the zero tail contributes its top min(k, m) order
// statistics in closed form — the j-th largest of m iid uniforms is sampled
// sequentially as U_(j) = U_(j-1)·U^{1/(m-j+1)} in log space and pushed
// through the Laplace quantile, and the ranks carrying those values are a
// uniform distinct sample by exchangeability. Support entries are noised in
// stream order and offered straight to the bounded heap, the tail's order
// statistics after them, so the release costs O(nnz + k) time and O(k)
// memory instead of O(n). Results are ordered by decreasing noisy utility.
func TopKLaplaceStream(eps, sens float64, sc stream.Scorer, n, k int, rng *rand.Rand) ([]StreamPick, error) {
	if !(eps > 0) {
		return nil, ErrBadEpsilon
	}
	if !(sens > 0) {
		return nil, ErrBadSens
	}
	nnz, _, err := scanStream(sc, n)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, n)
	}
	noise := distribution.Laplace{Loc: 0, Scale: sens / eps}
	h := topHeap{k: k, e: make([]topEntry, 0, k)}
	sc.Reset()
	seq := 0
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		h.offer(topEntry{v: x + noise.Sample(rng), seq: seq, node: i, util: x})
		seq++
	}
	m := n - nnz
	if j := min(k, m); j > 0 {
		ranks := distinctTailRanks(m, j, rng)
		logQ := 0.0 // log of the running top uniform order statistic
		for t := 0; t < j; t++ {
			u := rng.Float64()
			if u == 0 {
				u = math.Nextafter(0, 1)
			}
			logQ += math.Log(u) / float64(m-t)
			h.offer(topEntry{v: noise.QuantileLog(logQ), seq: seq, tail: ranks[t], isTail: true})
			seq++
		}
	}
	top := h.drain()
	out := make([]StreamPick, len(top))
	for i, e := range top {
		out[i] = StreamPick{Node: e.node, Util: e.util, Tail: e.tail, IsTail: e.isTail}
	}
	return out, nil
}

// peelScratch is the pooled working set of a without-replacement peel: the
// remaining support's utilities, the IDs picks are reported by, and each
// utility's exponential weight under the current maximum, all three
// swap-removed in step. Every slice grows in place across requests.
type peelScratch struct {
	vals []float64
	ids  []int32
	w    []float64
	// umax is the maximum remaining utility (floored at zero, the
	// SparseVec.max semantics), ties how many remaining entries equal it.
	umax  float64
	ties  int
	picks []StreamPick
	taken TailTracker
}

var peelPool = stream.NewPool("mechanism.peel", func() *peelScratch { return &peelScratch{} })

// getPeelScratch returns pooled scratch with an empty support.
func getPeelScratch() *peelScratch {
	ps := peelPool.Get()
	ps.vals, ps.ids = ps.vals[:0], ps.ids[:0]
	return ps
}

// gather rewinds sc and appends its support to the scratch.
func (ps *peelScratch) gather(sc stream.Scorer) {
	sc.Reset()
	for {
		i, x, ok := sc.Next()
		if !ok {
			return
		}
		ps.vals = append(ps.vals, x)
		ps.ids = append(ps.ids, i)
	}
}

// reweigh recomputes the maximum, its tie count and every weight
// exp(scale·(x - u_max)).
func (ps *peelScratch) reweigh(scale float64) {
	umax := 0.0
	for _, x := range ps.vals {
		if x > umax {
			umax = x
		}
	}
	ps.umax, ps.ties = umax, 0
	if cap(ps.w) < len(ps.vals) {
		ps.w = make([]float64, len(ps.vals))
	}
	ps.w = ps.w[:len(ps.vals)]
	for i, x := range ps.vals {
		ps.w[i] = math.Exp(scale * (x - umax))
		if x == umax {
			ps.ties++
		}
	}
}

// remove swap-removes support slot i and reports whether the weights went
// stale: only removing the last entry tied at the maximum changes it.
func (ps *peelScratch) remove(i int) (stale bool) {
	if ps.vals[i] == ps.umax {
		ps.ties--
		stale = ps.ties == 0
	}
	last := len(ps.vals) - 1
	ps.vals[i], ps.ids[i], ps.w[i] = ps.vals[last], ps.ids[last], ps.w[last]
	ps.vals, ps.ids, ps.w = ps.vals[:last], ps.ids[:last], ps.w[:last]
	return stale
}

// peel is the exponential-mechanism peel behind TopKPeelStream: k rounds
// at ε/k over the gathered support (ps.vals with ps.ids) plus
// n - len(ps.vals) implicit zeros, each round a sparse exponential draw
// without replacement. A round's weights depend only on
// the remaining maximum, so they are computed once and recomputed only
// when that maximum changes; each round then costs two add-only passes —
// the support mass, and a linear scan for the first cumulative weight
// above the draw. The running sums are the prefix sums SparseCDF keeps one
// per block and re-accumulates within a block, bit for bit, so the scan
// finds the candidate SampleSparseCDF finds from the same single
// rng.Float64(), and the tail and rounding cases resolve as it does. The
// picks, in selection order with tail ranks remapped to the original tail,
// are left in ps.picks. With k = 1 this is RecommendStream's draw.
func (ps *peelScratch) peel(eps, sens float64, n, k int, rng *rand.Rand) error {
	if !(eps > 0) {
		return ErrBadEpsilon
	}
	if !(sens > 0) {
		return ErrBadSens
	}
	if err := (SparseVec{Val: ps.vals, N: n}).validate(); err != nil {
		return err
	}
	if k < 1 || k > n {
		return fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, n)
	}
	scale := eps / float64(k) / sens // Exponential{ε/k, Δf}'s ε/Δf
	ps.picks, ps.taken.chosen = ps.picks[:0], ps.taken.chosen[:0]
	m := n - len(ps.vals)
	ps.reweigh(scale)
	tw := math.Exp(-scale * ps.umax)
	for len(ps.picks) < k {
		var zs float64
		for _, x := range ps.w {
			zs += x
		}
		target := rng.Float64() * (zs + float64(m)*tw)
		slot := len(ps.w) - 1 // rounding fell through with no tail: last entry
		if target < zs {
			var acc float64
			for i, x := range ps.w {
				acc += x
				if acc > target {
					slot = i
					break
				}
			}
		} else if m > 0 {
			rank := int((target - zs) / tw)
			if rank >= m {
				rank = m - 1 // rounding falls through to the last tail slot
			}
			ps.picks = append(ps.picks, StreamPick{IsTail: true, Tail: ps.taken.Take(rank)})
			m--
			continue
		}
		ps.picks = append(ps.picks, StreamPick{Node: ps.ids[slot], Util: ps.vals[slot]})
		if ps.remove(slot) {
			ps.reweigh(scale)
			tw = math.Exp(-scale * ps.umax)
		}
	}
	return nil
}

// TopKPeelStream returns k distinct candidates by running the exponential
// mechanism k times without replacement ("peeling"), each round a sparse
// exponential draw with budget ε/k; by sequential composition the full
// k-set is ε-differentially private. The support is gathered once into
// pooled scratch (removing winners requires random access), then the peel
// runs against it. Support picks are swap-removed;
// tail picks shrink the implicit tail, with ranks remapped to the original
// tail so the caller's candidate mapping stays fixed. Results are in
// selection order.
func TopKPeelStream(eps, sens float64, sc stream.Scorer, n, k int, rng *rand.Rand) ([]StreamPick, error) {
	ps := getPeelScratch()
	defer peelPool.Put(ps)
	ps.gather(sc)
	if err := ps.peel(eps, sens, n, k, rng); err != nil {
		return nil, err
	}
	out := make([]StreamPick, len(ps.picks))
	copy(out, ps.picks)
	return out, nil
}

// BestTopKStream is the non-private exact top k over a stream: the shared
// bounded heap selects the ks = min(k, nnz) best support entries (ties
// toward the earlier stream position, matching a stable descending sort),
// padded with the lowest zero-tail ranks.
func BestTopKStream(sc stream.Scorer, n, k int) ([]StreamPick, error) {
	nnz, _, err := scanStream(sc, n)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, n)
	}
	out := make([]StreamPick, 0, k)
	if ks := min(k, nnz); ks > 0 {
		h := topHeap{k: ks, e: make([]topEntry, 0, ks)}
		sc.Reset()
		seq := 0
		for {
			i, x, ok := sc.Next()
			if !ok {
				break
			}
			h.offer(topEntry{v: x, seq: seq, node: i, util: x})
			seq++
		}
		for _, e := range h.drain() {
			out = append(out, StreamPick{Node: e.node, Util: e.util})
		}
	}
	for rank := 0; len(out) < k; rank++ {
		out = append(out, StreamPick{IsTail: true, Tail: rank})
	}
	return out, nil
}
