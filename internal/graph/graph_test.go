package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, edges ...[2]int) {
	t.Helper()
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.Directed() {
		t.Errorf("unexpected empty graph state: %v", g)
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree of empty graph = %d", g.MaxDegree())
	}
}

func TestAddEdgeUndirected(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge should be visible both ways")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong")
	}
}

func TestAddEdgeDirected(t *testing.T) {
	g := NewDirected(3)
	mustAdd(t, g, [2]int{0, 1})
	if !g.HasEdge(0, 1) {
		t.Error("edge missing")
	}
	if g.HasEdge(1, 0) {
		t.Error("directed edge should not be symmetric")
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(0) != 0 {
		t.Error("directed degrees wrong")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Error("total degree wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: %v", err)
	}
	if err := g.AddEdge(0, 5); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range: %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrNodeRange) {
		t.Errorf("negative: %v", err)
	}
	mustAdd(t, g, [2]int{0, 1})
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate: %v", err)
	}
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("reverse duplicate on undirected: %v", err)
	}
}

func TestDirectedAllowsBothOrientations(t *testing.T) {
	g := NewDirected(2)
	mustAdd(t, g, [2]int{0, 1}, [2]int{1, 0})
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1}, [2]int{1, 2})
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge not removed")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrMissingEdge) {
		t.Errorf("removing absent edge: %v", err)
	}
	if err := g.RemoveEdge(9, 0); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range: %v", err)
	}
	// Undirected removal works from either endpoint.
	if err := g.RemoveEdge(2, 1); err != nil {
		t.Fatalf("reverse removal: %v", err)
	}
	if g.NumEdges() != 0 {
		t.Error("graph should be empty")
	}
}

func TestAddNode(t *testing.T) {
	g := NewDirected(1)
	id := g.AddNode()
	if id != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode -> %d, n=%d", id, g.NumNodes())
	}
	mustAdd(t, g, [2]int{0, 1})
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	mustAdd(t, g, [2]int{2, 4}, [2]int{2, 0}, [2]int{2, 3})
	ns := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(ns) != 3 {
		t.Fatalf("neighbors = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", ns, want)
		}
	}
}

func TestInNeighborsDirected(t *testing.T) {
	g := NewDirected(4)
	mustAdd(t, g, [2]int{1, 0}, [2]int{2, 0}, [2]int{0, 3})
	in := g.InNeighbors(0)
	if len(in) != 2 || in[0] != 1 || in[1] != 2 {
		t.Errorf("InNeighbors = %v", in)
	}
	out := g.OutNeighbors(0)
	if len(out) != 1 || out[0] != 3 {
		t.Errorf("OutNeighbors = %v", out)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	mustAdd(t, g, [2]int{3, 1}, [2]int{0, 2})
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("edges = %v", es)
	}
	if es[0] != (Edge{0, 2}) || es[1] != (Edge{1, 3}) {
		t.Errorf("edges = %v", es)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewDirected(3)
	mustAdd(t, g, [2]int{0, 1})
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	mustAdd(t, c, [2]int{1, 2})
	if g.Equal(c) {
		t.Error("mutating clone affected original comparison")
	}
	if g.HasEdge(1, 2) {
		t.Error("original mutated through clone")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEqualDistinguishes(t *testing.T) {
	a, b := New(2), New(3)
	if a.Equal(b) {
		t.Error("different node counts equal")
	}
	c := NewDirected(2)
	if a.Equal(c) {
		t.Error("directedness ignored")
	}
	d := New(2)
	mustAdd(t, d, [2]int{0, 1})
	if a.Equal(d) {
		t.Error("different edges equal")
	}
}

func TestMaxDegree(t *testing.T) {
	g := New(4)
	mustAdd(t, g, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	d := NewDirected(3)
	mustAdd(t, d, [2]int{0, 1}, [2]int{2, 1})
	if d.MaxDegree() != 2 { // node 1: in 2, out 0
		t.Errorf("directed MaxDegree = %d", d.MaxDegree())
	}
}

func TestDegreeSequence(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1})
	ds := g.DegreeSequence()
	if len(ds) != 3 || ds[0] != 1 || ds[1] != 1 || ds[2] != 0 {
		t.Errorf("DegreeSequence = %v", ds)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: break symmetry.
	delete(g.out[1], 0)
	if err := g.Validate(); err == nil {
		t.Error("Validate missed asymmetric adjacency")
	}

	d := NewDirected(2)
	mustAdd(t, d, [2]int{0, 1})
	delete(d.in[1], 0)
	if err := d.Validate(); err == nil {
		t.Error("Validate missed missing in-mirror")
	}

	e := New(2)
	mustAdd(t, e, [2]int{0, 1})
	e.m = 7
	if err := e.Validate(); err == nil {
		t.Error("Validate missed wrong edge count")
	}
}

func TestStringer(t *testing.T) {
	if s := New(2).String(); s != "graph{undirected, n=2, m=0}" {
		t.Errorf("String = %q", s)
	}
	if s := NewDirected(2).String(); s != "graph{directed, n=2, m=0}" {
		t.Errorf("String = %q", s)
	}
}

func TestForEachNeighbor(t *testing.T) {
	g := NewDirected(3)
	mustAdd(t, g, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 0})
	count := 0
	g.ForEachOutNeighbor(0, func(int) { count++ })
	if count != 2 {
		t.Errorf("ForEachOutNeighbor visited %d", count)
	}
	count = 0
	g.ForEachInNeighbor(0, func(u int) {
		if u != 1 {
			t.Errorf("unexpected in-neighbor %d", u)
		}
		count++
	})
	if count != 1 {
		t.Errorf("ForEachInNeighbor visited %d", count)
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *rand.Rand, n int, directed bool, density float64) *Graph {
	var g *Graph
	if directed {
		g = NewDirected(n)
	} else {
		g = New(n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if rng.Float64() < density {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestPropertyMutationsPreserveInvariants(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(12), directedFlag, 0.3)
		// Random add/remove churn.
		for i := 0; i < 30; i++ {
			u := rng.Intn(g.NumNodes())
			v := rng.Intn(g.NumNodes())
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if err := g.RemoveEdge(u, v); err != nil {
					return false
				}
			} else {
				if err := g.AddEdge(u, v); err != nil {
					return false
				}
			}
		}
		return g.Validate() == nil
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreeSumEqualsEdges(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(15), false, 0.4)
		sum := 0
		for _, d := range g.DegreeSequence() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyAddRemoveRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(10), directedFlag, 0.3)
		before := g.Clone()
		u, v := 0, 1
		if g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				return false
			}
			if err := g.AddEdge(u, v); err != nil {
				return false
			}
		} else {
			if err := g.AddEdge(u, v); err != nil {
				return false
			}
			if err := g.RemoveEdge(u, v); err != nil {
				return false
			}
		}
		return g.Equal(before)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
