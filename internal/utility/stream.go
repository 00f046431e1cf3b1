package utility

import "socialrec/internal/stream"

// Streaming kernels. StreamSparse is each utility's one kernel: it runs
// the utility's pooled accumulation and hands the result out as a
// stream.Scorer over the accumulator itself, so the serving path consumes
// the pairs in place and never materializes the support. The Scorer owns
// the sparseScratch until Close. Sparse (gather) and the tests' dense
// vector read the same stream, so every form of a utility's output carries identical pairs,
// which is what lets an uncached request reproduce a cached entry's draws
// exactly.

// Streamer is the kernel contract every Function embeds.
type Streamer interface {
	// StreamSparse returns a Scorer yielding the target's nonzero support
	// in ascending node order; r itself and r's out-neighbors are never
	// emitted. The caller must Close it (also on error-free early exit).
	StreamSparse(v View, r int) (stream.Scorer, error)
}

// maskExclusions zeroes r and r's out-neighbors in acc — the candidate
// convention.
func maskExclusions(v View, r int, acc *accumulator) {
	acc.zero(int32(r))
	for _, u := range v.Out(r) {
		acc.zero(u)
	}
}

// accScorer streams the nonzero entries of a finished accumulator in
// ascending index order, holding the backing sparseScratch until Close.
// With jaccard set, each count c is normalized to c/|union| on emission.
type accScorer struct {
	s       *sparseScratch
	acc     *accumulator
	touched []int32
	pos     int

	jaccard bool
	v       View
	dr      int
}

var accScorerPool = stream.NewPool("utility.scorer", func() *accScorer { return &accScorer{} })

// newAccScorer masks the exclusions in acc and wraps it in a pooled scorer
// that owns s.
func newAccScorer(v View, r int, s *sparseScratch, acc *accumulator) *accScorer {
	maskExclusions(v, r, acc)
	sc := accScorerPool.Get()
	sc.s = s
	sc.acc = acc
	sc.touched = acc.ascending(v.NumNodes())
	sc.pos = 0
	return sc
}

// Next implements stream.Scorer.
func (sc *accScorer) Next() (int32, float64, bool) {
	val := sc.acc.val
	for sc.pos < len(sc.touched) {
		i := sc.touched[sc.pos]
		sc.pos++
		x := val[i]
		if x == 0 {
			continue // masked exclusion retained by the sort path
		}
		if sc.jaccard {
			// The intersection is out(r) ∩ in(i), so the union pairs
			// out(r) with in(i).
			union := sc.dr + sc.v.InDegree(int(i)) - int(x)
			if union <= 0 {
				continue
			}
			return i, x / float64(union), true
		}
		return i, x, true
	}
	return 0, 0, false
}

// Reset implements stream.Scorer.
func (sc *accScorer) Reset() { sc.pos = 0 }

// Close implements stream.Scorer, returning the scratch and the scorer to
// their pools.
func (sc *accScorer) Close() {
	if sc.s == nil {
		return
	}
	putSparseScratch(sc.s)
	*sc = accScorer{}
	accScorerPool.Put(sc)
}

// StreamSparse implements Streamer by walking the two-hop out-neighborhood
// of r: every node with a nonzero count is reachable in exactly two
// out-steps, so the kernel costs O(Σ_{a∈out(r)} d_a), independent of n.
func (CommonNeighbors) StreamSparse(v View, r int) (stream.Scorer, error) {
	if err := checkTarget(v, r); err != nil {
		return nil, err
	}
	s := getSparseScratch()
	twoHopWalk(v, r, s)
	return newAccScorer(v, r, s, &s.a), nil
}

// StreamSparse implements Streamer: the support is exactly the
// nonzero-intersection set of the CommonNeighbors walk, and each count
// streams through the per-emit union normalization, so the kernel shares
// its two-hop cost.
func (Jaccard) StreamSparse(v View, r int) (stream.Scorer, error) {
	if err := checkTarget(v, r); err != nil {
		return nil, err
	}
	s := getSparseScratch()
	twoHopWalk(v, r, s)
	sc := newAccScorer(v, r, s, &s.a)
	sc.jaccard = true
	sc.v = v
	sc.dr = v.OutDegree(r)
	return sc, nil
}

// StreamSparse implements Streamer via the shared frontier walk.
func (w WeightedPaths) StreamSparse(v View, r int) (stream.Scorer, error) {
	s := getSparseScratch()
	if err := w.accumulate(v, r, s); err != nil {
		putSparseScratch(s)
		return nil, err
	}
	return newAccScorer(v, r, s, &s.a), nil
}

// StreamSparse implements Streamer via the shared power iteration.
func (p PageRank) StreamSparse(v View, r int) (stream.Scorer, error) {
	s := getSparseScratch()
	cur, err := p.accumulate(v, r, s)
	if err != nil {
		putSparseScratch(s)
		return nil, err
	}
	return newAccScorer(v, r, s, cur), nil
}

// degreeScorer streams the degree utility truly lazily: a node cursor plus
// the pooled exclusion bitset, O(1) memory beyond the bitset and no
// accumulation pass at all. Degree is the one utility whose support is
// inherently global (every non-isolated candidate scores), so a full drain
// is an O(n) degree scan.
type degreeScorer struct {
	v    View
	excl *nodeMark
	n    int
	pos  int
}

var degreeScorerPool = stream.NewPool("utility.degree", func() *degreeScorer { return &degreeScorer{} })

// StreamSparse implements Streamer.
func (Degree) StreamSparse(v View, r int) (stream.Scorer, error) {
	if err := checkTarget(v, r); err != nil {
		return nil, err
	}
	sc := degreeScorerPool.Get()
	sc.v = v
	sc.n = v.NumNodes()
	sc.pos = 0
	sc.excl = getExclusions(v, r)
	return sc, nil
}

// Next implements stream.Scorer.
func (sc *degreeScorer) Next() (int32, float64, bool) {
	for sc.pos < sc.n {
		i := sc.pos
		sc.pos++
		if sc.excl.has(i) {
			continue
		}
		if d := sc.v.OutDegree(i); d > 0 {
			return int32(i), float64(d), true
		}
	}
	return 0, 0, false
}

// Reset implements stream.Scorer.
func (sc *degreeScorer) Reset() { sc.pos = 0 }

// Close implements stream.Scorer.
func (sc *degreeScorer) Close() {
	if sc.excl == nil {
		return
	}
	putExclusions(sc.excl)
	*sc = degreeScorer{}
	degreeScorerPool.Put(sc)
}
