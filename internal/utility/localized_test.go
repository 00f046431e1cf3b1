package utility

import (
	"math/rand"
	"slices"
	"testing"

	"socialrec/internal/graph"
)

// outBall returns the nodes within radius out-hops of r, as a membership
// slice indexed by node ID.
func outBall(g *graph.Graph, r, radius int) []bool {
	in := make([]bool, g.NumNodes())
	in[r] = true
	frontier := []int{r}
	for hop := 0; hop < radius; hop++ {
		var next []int
		for _, v := range frontier {
			for _, u := range g.OutNeighbors(v) {
				if !in[u] {
					in[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return in
}

func toggleEdge(t *testing.T, g *graph.Graph, u, v int) {
	t.Helper()
	var err error
	if g.HasEdge(u, v) {
		err = g.RemoveEdge(u, v)
	} else {
		err = g.AddEdge(u, v)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestLocalizedContract checks the two halves of the Localized contract the
// serving cache's delta invalidation relies on: Sparse(r)'s support lies
// within InvalidationRadius() out-hops of r, and toggling an edge whose
// endpoints are both outside r's ball (before and after the toggle) leaves
// Sparse(r) bit-identical.
func TestLocalizedContract(t *testing.T) {
	localized := []Function{
		CommonNeighbors{},
		Jaccard{},
		WeightedPaths{Gamma: 0.05, MaxLen: 2},
		WeightedPaths{Gamma: 0.05, MaxLen: 3},
		WeightedPaths{Gamma: 0.05, MaxLen: 4},
	}
	for _, directed := range []bool{false, true} {
		for _, f := range localized {
			rho := f.(Localized).InvalidationRadius()
			g := sparseTestGraph(t, 300, 420, directed, 11)
			rng := rand.New(rand.NewSource(13))
			outside := 0
			for r := 0; r < 60; r++ {
				idx, val, err := f.Sparse(g.Snapshot(), r)
				if err != nil {
					t.Fatal(err)
				}
				ball := outBall(g, r, rho)
				for _, i := range idx {
					if !ball[i] {
						t.Fatalf("%s directed=%v target %d: support node %d is beyond radius %d", f.Name(), directed, r, i, rho)
					}
				}
				for trial := 0; trial < 20; trial++ {
					u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
					if u == v || ball[u] || ball[v] {
						continue
					}
					toggleEdge(t, g, u, v)
					after := outBall(g, r, rho)
					idx2, val2, err := f.Sparse(g.Snapshot(), r)
					toggleEdge(t, g, u, v)
					if err != nil {
						t.Fatal(err)
					}
					if after[u] || after[v] {
						continue
					}
					outside++
					if !slices.Equal(idx, idx2) || !slices.Equal(val, val2) {
						t.Fatalf("%s directed=%v target %d: toggling (%d,%d) outside the radius-%d ball changed Sparse", f.Name(), directed, r, u, v, rho)
					}
				}
			}
			if outside == 0 {
				t.Fatalf("%s directed=%v: no toggle landed outside the ball", f.Name(), directed)
			}
			t.Logf("%s directed=%v: %d toggles outside the ball", f.Name(), directed, outside)
		}
	}
}
