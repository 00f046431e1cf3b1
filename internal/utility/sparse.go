package utility

import (
	"fmt"
	"slices"

	"socialrec/internal/stream"
)

// checkTarget validates the target node range, the shared precondition of
// every kernel entry point.
func checkTarget(v View, r int) error {
	if r < 0 || r >= v.NumNodes() {
		return fmt.Errorf("%w: %d", ErrTarget, r)
	}
	return nil
}

// Sparse utility kernels. The paper's link-analysis utilities are zero
// outside a target's 2-3-hop out-neighborhood, so on sparse graphs the
// utility vector has a few hundred nonzeros out of n. The kernels here walk
// the adjacency spans directly and accumulate into pooled scratch, touching
// only the nonzero support — O(nnz) work and allocation per call instead of
// the O(n) a dense vector costs. Every kernel accumulates floating-point
// contributions in the same (ascending-index) order as the dense reference
// computation, so the nonzero values are bit-identical to the dense
// vector's. Each utility exposes its accumulation once, as StreamSparse
// (stream.go); gather below turns that stream into the sparse form.

// accumulator is a sparse accumulator (SPA): a dense value array that is
// all-zero between uses plus the list of indices holding nonzero mass, so
// clearing costs O(touched) rather than O(n). Once a pass is known to reach
// a large share of the n entries, touch tracking is wasted work, and the
// accumulator switches to dense mode (see expect): adds then write val
// directly, and one O(n) scan rebuilds the index list at collection time.
type accumulator struct {
	val     []float64
	touched []int32
	// dense marks that accumulation bypassed touched tracking: val alone is
	// authoritative over [0, n). ascending rebuilds touched from it.
	dense bool
	// n is the live prefix of val for the current graph (val may be longer,
	// pooled from a bigger one).
	n int
}

// Density thresholds, as divisors of n. Touch tracking pays only while the
// support stays sparse: once n/scanDiv entries are touched, ascending
// rebuilds the index list with a dense scan anyway. A walk that expands a
// frontier knows only Σ out-degree over it, which counts repeat visits, so
// it goes dense at the more conservative n/walkDiv.
const (
	scanDiv = 8
	walkDiv = 4
)

func (a *accumulator) grow(n int) {
	if len(a.val) < n {
		a.val = make([]float64, n) // fresh allocation is already zeroed
	}
	a.touched = a.touched[:0]
	a.dense = false
	a.n = n
}

// expect announces a pass that adds to at most bound entries (or, for a
// frontier expansion, makes at most bound additions) and switches the
// accumulator to dense mode when bound reaches n/div. It is the single
// density rule every walk applies; dense mode lasts until ascending or
// reset.
func (a *accumulator) expect(bound, div int) {
	if div*bound >= a.n {
		a.dense = true
	}
}

// add accumulates x into entry i, tracking first touches unless dense.
// Contributions are non-negative, so an entry never cancels back to zero
// and the touched list stays duplicate-free.
func (a *accumulator) add(i int32, x float64) {
	if !a.dense && a.val[i] == 0 && x != 0 {
		a.touched = append(a.touched, i)
	}
	a.val[i] += x
}

// addRow adds x to every entry of row except skip1 and skip2, in row order
// — the same float operations as calling add per entry, with the density
// branch taken once per row instead of once per edge.
func (a *accumulator) addRow(row []int32, x float64, skip1, skip2 int32) {
	val := a.val
	if a.dense {
		for _, i := range row {
			if i != skip1 && i != skip2 {
				val[i] += x
			}
		}
		return
	}
	for _, i := range row {
		if i == skip1 || i == skip2 {
			continue
		}
		if val[i] == 0 && x != 0 {
			a.touched = append(a.touched, i)
		}
		val[i] += x
	}
}

// zero clears entry i without removing it from the touched list.
func (a *accumulator) zero(i int32) { a.val[i] = 0 }

// ascending orders the touched list ascending — the accumulation order the
// dense reference computations use — and returns it. Two strategies produce
// the identical list: sorting the touched entries when the support is small
// relative to the n live entries, or rebuilding it with a dense ascending
// scan once the support is large enough that the O(nnz log nnz) sort would
// cost more (the scan also drops entries zeroed since touching, which the
// sort path retains harmlessly).
func (a *accumulator) ascending(n int) []int32 {
	if a.dense || scanDiv*len(a.touched) >= n {
		a.dense = false
		if cap(a.touched) < n {
			a.touched = make([]int32, n)
		}
		// Branch-free compaction: every index is written, only nonzero
		// ones advance the cursor.
		t := a.touched[:n]
		j := 0
		for i, x := range a.val[:n] {
			t[j] = int32(i)
			if x != 0 {
				j++
			}
		}
		a.touched = t[:j]
		return a.touched
	}
	slices.Sort(a.touched)
	return a.touched
}

// reset zeroes every touched entry, restoring the all-zero invariant.
func (a *accumulator) reset() {
	if a.dense {
		clear(a.val[:a.n])
		a.dense = false
	} else {
		for _, i := range a.touched {
			a.val[i] = 0
		}
	}
	a.touched = a.touched[:0]
}

// sparseScratch bundles the accumulators one kernel invocation needs; a
// sync.Pool recycles them so steady-state serving does no length-n
// allocation. Accumulators are grown by the kernel itself — most kernels
// use only s.a, and growing all three would triple the pooled scratch
// memory for nothing.
type sparseScratch struct {
	a, b, c accumulator
}

var sparsePool = stream.NewPool("utility.sparse", func() *sparseScratch { return &sparseScratch{} })

func getSparseScratch() *sparseScratch {
	return sparsePool.Get()
}

// reset restores the all-zero invariant a pooled scratch must hold.
func (s *sparseScratch) reset() {
	s.a.reset()
	s.b.reset()
	s.c.reset()
}

func putSparseScratch(s *sparseScratch) {
	s.reset()
	sparsePool.Put(s)
}

// twoHopWalk accumulates the common-neighbor counts of target r into s.a:
// counts[i] = number of length-2 out-walks r→a→i with i ∉ {r, a}. The
// two-hop edge count bounds the support up front, so when the result will
// not be sparse the walk accumulates densely; counts are identical either
// way.
func twoHopWalk(v View, r int, s *sparseScratch) {
	s.a.grow(v.NumNodes())
	row := v.Out(r)
	bound := 0
	for _, a := range row {
		bound += v.OutDegree(int(a))
	}
	s.a.expect(bound, walkDiv)
	for _, a := range row {
		s.a.addRow(v.Out(int(a)), 1, int32(r), a)
	}
}

// gather drains a kernel's stream into caller-owned idx/val slices: one
// counting pass, then an exact-size fill. Cache entries alias these slices
// and account for them by length, so slack capacity would be heap the cache
// cannot see. Every built-in Sparse is gather over its own StreamSparse.
func gather(sc stream.Scorer, err error) ([]int32, []float64, error) {
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
			return idx, val, nil
		}
		idx = append(idx, i)
		val = append(val, x)
	}
}

// CandidateCount returns the size of target r's candidate domain: every
// node except r itself and r's existing out-neighbors. It is the n_cand the
// sparse serving path pairs with a kernel's nonzero support (the remaining
// n_cand - nnz candidates implicitly hold utility 0).
func CandidateCount(v View, r int) int {
	return v.NumNodes() - 1 - v.OutDegree(r)
}

// nodeMark is a pooled bitset over node IDs with O(marked) clearing, used
// for the exclusion checks (is this node the target or one of its
// out-neighbors?) that Candidates and the Degree kernel need without an
// O(n) []bool allocation per call.
type nodeMark struct {
	words  []uint64
	marked []int32 // word indices holding set bits, for cheap clearing
}

func (m *nodeMark) grow(n int) {
	need := (n + 63) / 64
	if len(m.words) < need {
		m.words = make([]uint64, need)
	}
}

func (m *nodeMark) set(i int) {
	w := int32(i >> 6)
	if m.words[w] == 0 {
		m.marked = append(m.marked, w)
	}
	m.words[w] |= 1 << (uint(i) & 63)
}

func (m *nodeMark) has(i int) bool { return m.words[i>>6]&(1<<(uint(i)&63)) != 0 }

func (m *nodeMark) reset() {
	for _, w := range m.marked {
		m.words[w] = 0
	}
	m.marked = m.marked[:0]
}

var markPool = stream.NewPool("utility.mark", func() *nodeMark { return &nodeMark{} })

// getExclusions returns a pooled bitset with r and r's out-neighbors set.
func getExclusions(v View, r int) *nodeMark {
	m := markPool.Get()
	m.grow(v.NumNodes())
	m.set(r)
	for _, u := range v.Out(r) {
		m.set(int(u))
	}
	return m
}

func putExclusions(m *nodeMark) {
	m.reset()
	markPool.Put(m)
}
