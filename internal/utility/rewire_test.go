package utility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"socialrec/internal/graph"
)

// These tests validate the rewiring counts the experiments feed into
// Corollary 1 (§7.1): t edge alterations must actually suffice to turn a
// zero-utility candidate into the strict maximum-utility node. If t were
// understated, the theoretical ceiling curves would be wrong (too tight).

// promoteCommonNeighbors applies the Claim 3 construction: connect x to
// u_max+1 distinct neighbors of r, adding a fresh intermediary when r has
// no spare. It returns the number of edges added.
func promoteCommonNeighbors(t *testing.T, g *graph.Graph, r, x int, umax int) int {
	t.Helper()
	added := 0
	need := umax + 1
	for _, w := range g.OutNeighbors(r) {
		if need == 0 {
			break
		}
		if w == x || g.HasEdge(x, w) {
			continue
		}
		if err := g.AddEdge(x, w); err != nil {
			t.Fatal(err)
		}
		added++
		need--
	}
	for need > 0 {
		// Manufacture fresh intermediaries.
		y := g.AddNode()
		if err := g.AddEdge(r, y); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(x, y); err != nil {
			t.Fatal(err)
		}
		added += 2
		need--
	}
	return added
}

func TestRewireCountPromotesCommonNeighbors(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := randomGraph(rng, n, false, 0.3)
		r := rng.Intn(n)
		if g.OutDegree(r) == 0 {
			return true // vacuous: no neighborhood to rewire into
		}
		full, err := denseVector(CommonNeighbors{}, g, r)
		if err != nil {
			return false
		}
		umax := Max(full)
		// Pick a zero-utility candidate not adjacent to r.
		x := -1
		for i, u := range full {
			if u == 0 && i != r && !g.HasEdge(r, i) {
				x = i
				break
			}
		}
		if x < 0 {
			return true // vacuous: everyone already has utility
		}
		declared := (CommonNeighbors{}).RewireCount(umax, g.OutDegree(r))
		work := g.Clone()
		added := promoteCommonNeighbors(t, work, r, x, int(umax))
		if added > declared {
			t.Logf("construction used %d edits, declared t = %d", added, declared)
			return false
		}
		after, err := denseVector(CommonNeighbors{}, work, r)
		if err != nil {
			return false
		}
		// x must now be the unique argmax.
		for i, u := range after {
			if i == x {
				continue
			}
			if u >= after[x] {
				t.Logf("promotion failed: u[%d]=%g >= u[x=%d]=%g", i, u, x, after[x])
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Error(err)
	}
}

func TestRewireCountPromotesWeightedPaths(t *testing.T) {
	// For weighted paths with small gamma, the same construction plus the
	// declared t = floor(umax)+2 budget must promote a zero-utility node.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := randomGraph(rng, n, false, 0.3)
		r := rng.Intn(n)
		if g.OutDegree(r) == 0 {
			return true
		}
		wp := WeightedPaths{Gamma: 1e-6}
		full, err := denseVector(wp, g, r)
		if err != nil {
			return false
		}
		umax := Max(full)
		x := -1
		for i, u := range full {
			if u == 0 && i != r && !g.HasEdge(r, i) {
				x = i
				break
			}
		}
		if x < 0 {
			return true
		}
		work := g.Clone()
		// Connect x to floor(umax)+1 neighbors of r (fresh intermediaries
		// as needed) — within the declared budget of floor(umax)+2 when r
		// has spare neighbors; the tiny gamma keeps longer paths from
		// overturning the count order.
		promoteCommonNeighbors(t, work, r, x, int(umax))
		after, err := denseVector(wp, work, r)
		if err != nil {
			return false
		}
		for i, u := range after {
			if i == x {
				continue
			}
			if u >= after[x] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Error(err)
	}
}
