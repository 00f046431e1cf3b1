package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelabelIdentity(t *testing.T) {
	g := fixtureUndirected(t)
	h, err := g.Relabel([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("identity relabel changed graph")
	}
}

func TestRelabelSwap(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1})
	h, err := g.Relabel([]int{0, 2, 1}) // swap nodes 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasEdge(0, 2) || h.HasEdge(0, 1) {
		t.Errorf("relabel wrong: edges = %v", h.Edges())
	}
	if h.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", h.NumEdges())
	}
}

func TestRelabelDirected(t *testing.T) {
	g := NewDirected(3)
	mustAdd(t, g, [2]int{0, 1}, [2]int{1, 2})
	h, err := g.Relabel([]int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasEdge(2, 1) || !h.HasEdge(1, 0) {
		t.Errorf("directed relabel wrong: %v", h.Edges())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRelabelRejectsBadPermutations(t *testing.T) {
	g := New(3)
	if _, err := g.Relabel([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := g.Relabel([]int{0, 1, 1}); err == nil {
		t.Error("repeated value accepted")
	}
	if _, err := g.Relabel([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func TestPropertyRelabelPreservesStructure(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomGraph(rng, n, directedFlag, 0.35)
		perm := rng.Perm(n)
		h, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		if h.NumEdges() != g.NumEdges() || h.Validate() != nil {
			return false
		}
		// Degree multiset preserved pointwise under the permutation.
		for v := 0; v < n; v++ {
			if g.Degree(v) != h.Degree(perm[v]) {
				return false
			}
		}
		// Round trip through the inverse permutation.
		inv := make([]int, n)
		for v, p := range perm {
			inv[p] = v
		}
		back, err := h.Relabel(inv)
		if err != nil {
			return false
		}
		return back.Equal(g)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}
