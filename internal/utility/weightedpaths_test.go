package utility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/graph"
)

// Tests for the weighted-paths frontier walk. Its levels switch between
// touch-tracked (sparse) and direct (dense) accumulation by a density
// rule; the output must not depend on which branch ran. The reference is
// the walk as it stood before dense accumulation, kept here as an oracle:
// every level tracks touched entries and sorts them.

func oracleWeightedPaths(w WeightedPaths, v View, r int) ([]int32, []float64) {
	s := &sparseScratch{}
	n := v.NumNodes()
	s.a.grow(n)
	s.b.grow(n)
	s.c.grow(n)
	frontier, next := &s.b, &s.c
	for _, a := range v.Out(r) {
		frontier.add(a, 1)
	}
	weight := 1.0
	for l := 2; l <= w.maxLen(); l++ {
		for _, a := range frontier.ascending(n) {
			cnt := frontier.val[a]
			if cnt == 0 {
				continue
			}
			for _, i := range v.Out(int(a)) {
				next.add(i, cnt)
			}
		}
		next.zero(int32(r))
		for _, i := range next.ascending(n) {
			if c := next.val[i]; c != 0 {
				s.a.add(i, weight*c)
			}
		}
		weight *= w.Gamma
		frontier.reset()
		frontier, next = next, frontier
	}
	maskExclusions(v, r, &s.a)
	var idx []int32
	var val []float64
	for _, i := range s.a.ascending(n) {
		if x := s.a.val[i]; x != 0 {
			idx = append(idx, i)
			val = append(val, x)
		}
	}
	return idx, val
}

// levelBounds returns, for each level l = 2..maxLen, the sum of out-degrees
// over the frontier that level expands (the nodes other than r reached by
// a walk of length l-1) — the bound the kernel's density rule reads.
func levelBounds(v View, r, maxLen int) []int {
	frontier := map[int]bool{}
	for _, u := range v.Out(r) {
		frontier[int(u)] = true
	}
	var bounds []int
	for l := 2; l <= maxLen; l++ {
		bound := 0
		next := map[int]bool{}
		for a := range frontier {
			bound += v.OutDegree(a)
			for _, u := range v.Out(a) {
				if int(u) != r {
					next[int(u)] = true
				}
			}
		}
		bounds = append(bounds, bound)
		frontier = next
	}
	return bounds
}

func newGraph(n int, directed bool) *graph.Graph {
	if directed {
		return graph.NewDirected(n)
	}
	return graph.New(n)
}

// link adds u→v, and v→u as well on a directed graph when back is set.
func link(t *testing.T, g *graph.Graph, u, v int, back bool) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if back && g.Directed() {
		if err := g.AddEdge(v, u); err != nil {
			t.Fatal(err)
		}
	}
}

// ringGraph is a cycle on n nodes: every frontier holds a handful of nodes,
// so each level stays on the sparse branch.
func ringGraph(t *testing.T, n int, directed bool) *graph.Graph {
	g := newGraph(n, directed)
	for i := 0; i < n; i++ {
		link(t, g, i, (i+1)%n, false)
	}
	return g
}

// starGraph links a hub (node 0) both ways to every other node: a leaf's
// first expansion crosses the hub's n-1 edges, the dense branch.
func starGraph(t *testing.T, n int, directed bool) *graph.Graph {
	g := newGraph(n, directed)
	for i := 1; i < n; i++ {
		link(t, g, 0, i, true)
	}
	return g
}

// mixedGraph is the chain 0→1→2 with node 2 fanning out to every node from
// 3 up: from target 0, level 2 expands node 1 alone (sparse) and level 3
// expands the fan (dense).
func mixedGraph(t *testing.T, n int, directed bool) *graph.Graph {
	g := newGraph(n, directed)
	link(t, g, 0, 1, false)
	link(t, g, 1, 2, false)
	for i := 3; i < n; i++ {
		link(t, g, 2, i, false)
	}
	return g
}

func TestWeightedPathsBranchesMatchOracle(t *testing.T) {
	const n = 256
	dense := func(b int) bool { return walkDiv*b >= n }
	for _, directed := range []bool{true, false} {
		cases := []struct {
			name   string
			g      *graph.Graph
			target int
			check  func(bounds []int) error
		}{
			{"ring", ringGraph(t, n, directed), 7, func(bounds []int) error {
				for l, b := range bounds {
					if dense(b) {
						return fmt.Errorf("level %d dense (bound %d)", l+2, b)
					}
				}
				return nil
			}},
			{"star", starGraph(t, n, directed), 5, func(bounds []int) error {
				if !dense(bounds[0]) {
					return fmt.Errorf("level 2 sparse (bound %d)", bounds[0])
				}
				return nil
			}},
			{"mixed", mixedGraph(t, n, directed), 0, func(bounds []int) error {
				if dense(bounds[0]) || len(bounds) > 1 && !dense(bounds[1]) {
					return fmt.Errorf("want level 2 sparse and level 3 dense, bounds %v", bounds)
				}
				return nil
			}},
			{"random", randomGraph(rand.New(rand.NewSource(3)), n, directed, 0.01), 11, nil},
		}
		for _, tc := range cases {
			for _, view := range []View{tc.g, tc.g.Snapshot()} {
				for maxLen := 2; maxLen <= 5; maxLen++ {
					name := fmt.Sprintf("%s/directed=%v/%T/len=%d", tc.name, directed, view, maxLen)
					if tc.check != nil {
						if err := tc.check(levelBounds(view, tc.target, maxLen)); err != nil {
							t.Fatalf("%s: fixture no longer forces its branch: %v", name, err)
						}
					}
					w := WeightedPaths{Gamma: 0.3, MaxLen: maxLen}
					for r := 0; r < n; r++ {
						wantIdx, wantVal := oracleWeightedPaths(w, view, r)
						idx, val, err := w.Sparse(view, r)
						if err != nil {
							t.Fatal(err)
						}
						sc, err := w.StreamSparse(view, r)
						if err != nil {
							t.Fatal(err)
						}
						sIdx, sVal := drain(t, sc)
						sc.Close()
						for _, got := range []struct {
							idx []int32
							val []float64
						}{{idx, val}, {sIdx, sVal}} {
							if err := sameSparse(got.idx, got.val, wantIdx, wantVal); err != nil {
								t.Fatalf("%s target %d: %v", name, r, err)
							}
						}
					}
				}
			}
		}
	}
}

// sameSparse compares two sparse results bit for bit.
func sameSparse(idx []int32, val []float64, wantIdx []int32, wantVal []float64) error {
	if len(idx) != len(wantIdx) || len(val) != len(wantVal) {
		return fmt.Errorf("nnz %d, oracle %d", len(idx), len(wantIdx))
	}
	for i := range idx {
		if idx[i] != wantIdx[i] || math.Float64bits(val[i]) != math.Float64bits(wantVal[i]) {
			return fmt.Errorf("entry %d = (%d, %v), oracle (%d, %v)", i, idx[i], val[i], wantIdx[i], wantVal[i])
		}
	}
	return nil
}

// assertZero fails unless every pooled value array of s is all-zero over
// its whole length, including any prefix a larger graph grew beyond the
// current one.
func assertZero(t *testing.T, when string, s *sparseScratch) {
	t.Helper()
	for name, acc := range map[string]*accumulator{"a": &s.a, "b": &s.b, "c": &s.c} {
		for i, x := range acc.val {
			if x != 0 {
				t.Fatalf("%s: scratch %s.val[%d] = %v", when, name, i, x)
			}
		}
		if acc.dense || len(acc.touched) != 0 {
			t.Fatalf("%s: scratch %s left dense=%v touched=%d", when, name, acc.dense, len(acc.touched))
		}
	}
}

func TestWeightedPathsScratchZeroAfterClose(t *testing.T) {
	big := starGraph(t, 512, false).Snapshot()
	small := mixedGraph(t, 64, true).Snapshot()
	w := WeightedPaths{Gamma: 0.1, MaxLen: 4}

	// The scratch Close returns to the pool is the one the kernel filled.
	for _, v := range []View{big, small} {
		sc, err := w.StreamSparse(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := sc.(*accScorer).s
		sc.Close()
		assertZero(t, "after Close", s)
	}

	// One scratch grown on the big graph, then reused on the small one:
	// the reset that Close and Sparse run must clear every use.
	s := &sparseScratch{}
	for _, tc := range []struct {
		v View
		r int
	}{{big, 3}, {small, 0}, {big, 0}, {small, 2}} {
		if err := w.accumulate(tc.v, tc.r, s); err != nil {
			t.Fatal(err)
		}
		maskExclusions(tc.v, tc.r, &s.a)
		s.a.ascending(tc.v.NumNodes())
		s.reset()
		assertZero(t, fmt.Sprintf("after n=%d target %d", tc.v.NumNodes(), tc.r), s)
		if len(s.a.val) < big.NumNodes() {
			t.Fatalf("scratch shrank to %d", len(s.a.val))
		}
	}
}
