package utility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"socialrec/internal/graph"
)

func TestCandidatesExcludesTargetAndNeighbors(t *testing.T) {
	g := kite(t)
	// N(0) = {1, 2}: candidates are {3, 4}.
	got := Candidates(g, 0)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Candidates(0) = %v", got)
	}
}

func TestCandidatesDirectedUsesOutNeighbors(t *testing.T) {
	g := graph.NewDirected(4)
	for _, e := range [][2]int{{0, 1}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// out(0) = {1}; 2 follows 0 but 0 does not follow 2, so 2 IS a
	// candidate (recommending an existing follower back is meaningful).
	got := Candidates(g, 0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Candidates(0) = %v", got)
	}
}

func TestCandidatesIsolatedNode(t *testing.T) {
	g := graph.New(3)
	got := Candidates(g, 1)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Candidates = %v", got)
	}
}

func TestCompact(t *testing.T) {
	vec := []float64{9, 8, 7, 6}
	got := compact(vec, []int{0, 3})
	if len(got) != 2 || got[0] != 9 || got[1] != 6 {
		t.Errorf("Compact = %v", got)
	}
	if len(compact(vec, nil)) != 0 {
		t.Error("empty candidate list should compact to empty")
	}
}

func TestPropertyCandidateCount(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := randomGraph(rng, n, directedFlag, 0.4)
		r := rng.Intn(n)
		cands := Candidates(g, r)
		if len(cands) != n-1-g.OutDegree(r) {
			return false
		}
		for _, c := range cands {
			if c == r || g.HasEdge(r, c) {
				return false
			}
		}
		// CSR view agrees.
		csrCands := Candidates(g.Snapshot(), r)
		if len(csrCands) != len(cands) {
			return false
		}
		for i := range cands {
			if cands[i] != csrCands[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}
