package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSnapshotBasics(t *testing.T) {
	g := fixtureUndirected(t)
	c := g.Snapshot()
	if c.NumNodes() != 4 || c.Directed() {
		t.Errorf("snapshot shape wrong: n=%d directed=%v", c.NumNodes(), c.Directed())
	}
	out := c.Out(2)
	if len(out) != 3 || out[0] != 0 || out[1] != 1 || out[2] != 3 {
		t.Errorf("Out(2) = %v", out)
	}
	if c.OutDegree(2) != 3 || c.OutDegree(3) != 1 {
		t.Error("OutDegree wrong")
	}
	if c.MaxDegree() != g.MaxDegree() {
		t.Errorf("MaxDegree %d vs %d", c.MaxDegree(), g.MaxDegree())
	}
}

func TestSnapshotDirectedInOut(t *testing.T) {
	g := NewDirected(3)
	mustAdd(t, g, [2]int{0, 1}, [2]int{2, 1})
	c := g.Snapshot()
	if !c.Directed() {
		t.Fatal("directedness lost")
	}
	in := c.In(1)
	if len(in) != 2 || in[0] != 0 || in[1] != 2 {
		t.Errorf("In(1) = %v", in)
	}
	if len(c.Out(1)) != 0 {
		t.Errorf("Out(1) = %v", c.Out(1))
	}
	if c.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", c.MaxDegree())
	}
}

func TestSnapshotHasEdge(t *testing.T) {
	g := fixtureUndirected(t)
	c := g.Snapshot()
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if c.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Errorf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
}

func TestSnapshotImmutableUnderMutation(t *testing.T) {
	g := New(3)
	mustAdd(t, g, [2]int{0, 1})
	c := g.Snapshot()
	mustAdd(t, g, [2]int{1, 2})
	if c.HasEdge(1, 2) {
		t.Error("snapshot reflected later mutation")
	}
}

func TestSnapshotForEachOutNeighbor(t *testing.T) {
	g := fixtureUndirected(t)
	c := g.Snapshot()
	var got []int
	c.ForEachOutNeighbor(2, func(u int) { got = append(got, u) })
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("visited %v", got)
	}
}

func TestPropertySnapshotAgreesWithGraph(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12), directedFlag, 0.35)
		c := g.Snapshot()
		for v := 0; v < g.NumNodes(); v++ {
			if !intsMatchSpan(g.OutNeighbors(v), c.Out(v)) || !intsMatchSpan(g.InNeighbors(v), c.In(v)) ||
				g.OutDegree(v) != c.OutDegree(v) || g.InDegree(v) != c.InDegree(v) {
				return false
			}
		}
		return c.MaxDegree() == g.MaxDegree()
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// intsMatchSpan reports whether a Graph neighbor list equals a CSR span.
func intsMatchSpan(want []int, got []int32) bool {
	if len(want) != len(got) {
		return false
	}
	for i, u := range want {
		if int32(u) != got[i] {
			return false
		}
	}
	return true
}
