package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle-plus-tail fixture:
//
//	0 - 1
//	|   |
//	2 - +   and 2 - 3
func fixtureUndirected(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	mustAdd(t, g, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}, [2]int{2, 3})
	return g
}

func TestCommonNeighborsUndirected(t *testing.T) {
	g := fixtureUndirected(t)
	// N(0)={1,2}, N(1)={0,2}: common = {2}.
	if got := g.CommonNeighbors(0, 1); got != 1 {
		t.Errorf("C(0,1) = %d, want 1", got)
	}
	// N(0)={1,2}, N(3)={2}: common = {2}.
	if got := g.CommonNeighbors(0, 3); got != 1 {
		t.Errorf("C(0,3) = %d, want 1", got)
	}
	// Symmetric on undirected graphs.
	if g.CommonNeighbors(3, 0) != g.CommonNeighbors(0, 3) {
		t.Error("common neighbors asymmetric on undirected graph")
	}
}

func TestCommonNeighborsDirected(t *testing.T) {
	g := NewDirected(4)
	// r=0 follows 1 and 2; 1 and 2 both point to 3.
	mustAdd(t, g, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 3}, [2]int{2, 3})
	// |out(0) ∩ in(3)| = |{1,2} ∩ {1,2}| = 2.
	if got := g.CommonNeighbors(0, 3); got != 2 {
		t.Errorf("C(0,3) = %d, want 2", got)
	}
	// |out(3) ∩ in(0)| = 0.
	if got := g.CommonNeighbors(3, 0); got != 0 {
		t.Errorf("C(3,0) = %d, want 0", got)
	}
}

func TestCommonNeighborsFromMatchesPairwise(t *testing.T) {
	g := fixtureUndirected(t)
	counts := g.CommonNeighborsFrom(0)
	for i := 0; i < g.NumNodes(); i++ {
		if i == 0 {
			if counts[0] != 0 {
				t.Errorf("counts[r] = %d, want 0", counts[0])
			}
			continue
		}
		if want := g.CommonNeighbors(0, i); counts[i] != want {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want)
		}
	}
}

func TestCommonNeighborsFromExcludesSelfIntermediary(t *testing.T) {
	// 0-1 only: a walk 0->1->0 must not count, and node 1's count via
	// intermediary 1 itself is impossible.
	g := New(2)
	mustAdd(t, g, [2]int{0, 1})
	counts := g.CommonNeighborsFrom(0)
	if counts[0] != 0 || counts[1] != 0 {
		t.Errorf("counts = %v, want all zero", counts)
	}
}

func TestPropertyCommonNeighborsFromAgreesPairwise(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12), directedFlag, 0.35)
		r := rng.Intn(g.NumNodes())
		counts := g.CommonNeighborsFrom(r)
		for i := range counts {
			if i == r {
				if counts[i] != 0 {
					return false
				}
				continue
			}
			// Pairwise count minus walks through i itself (the bulk API
			// skips intermediary == endpoint).
			want := g.CommonNeighbors(r, i)
			if g.HasEdge(r, i) && g.HasEdge(i, i) {
				return false // impossible: self loops rejected
			}
			// The pairwise count may include i as its own intermediary only
			// via a self loop, which cannot exist, except i ∈ out(r) ∩ in(i)
			// requires edge i->i. So they must agree exactly.
			if counts[i] != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestTwoHopNeighborhood(t *testing.T) {
	g := fixtureUndirected(t)
	// From 3: N(3)={2}; two-hop = N(2)\{3} with common>0 = {0,1}.
	hops := g.TwoHopNeighborhood(3)
	if len(hops) != 2 || hops[0] != 0 || hops[1] != 1 {
		t.Errorf("TwoHopNeighborhood(3) = %v", hops)
	}
}

func TestTwoHopNeighborhoodIsolated(t *testing.T) {
	g := New(3)
	if hops := g.TwoHopNeighborhood(0); len(hops) != 0 {
		t.Errorf("isolated node has two-hop %v", hops)
	}
}
