package utility

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socialrec/internal/graph"
)

func TestJaccardVectorKnownValues(t *testing.T) {
	g := kite(t)
	// From r=0: N(0)={1,2}. Candidate 3: N(3)={1,2,4}, inter=2, union=3.
	// Candidate 4: N(4)={3}, inter=0.
	vec, err := denseVector(Jaccard{}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec[3]-2.0/3) > 1e-12 {
		t.Errorf("vec[3] = %g, want 2/3", vec[3])
	}
	if vec[4] != 0 {
		t.Errorf("vec[4] = %g, want 0", vec[4])
	}
	if vec[0] != 0 || vec[1] != 0 || vec[2] != 0 {
		t.Error("masked entries should be zero")
	}
}

func TestJaccardScoresBounded(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(10), directedFlag, 0.4)
		r := rng.Intn(g.NumNodes())
		vec, err := denseVector(Jaccard{}, g, r)
		if err != nil {
			return false
		}
		for _, x := range vec {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestJaccardPerfectScore(t *testing.T) {
	// Candidate with exactly r's neighborhood scores 1.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := denseVector(Jaccard{}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vec[3] != 1 {
		t.Errorf("vec[3] = %g, want 1", vec[3])
	}
}

func TestJaccardValidationAndParams(t *testing.T) {
	g := kite(t)
	if _, err := denseVector(Jaccard{}, g, -1); !errors.Is(err, ErrTarget) {
		t.Error("bad target accepted")
	}
	if got := (Jaccard{}).Sensitivity(g); got != 2 {
		t.Errorf("sensitivity = %g", got)
	}
	if got := (Jaccard{}).RewireCount(0.9, 5); got != 12 {
		t.Errorf("t = %d, want 12", got)
	}
}

// TestJaccardSensitivityEmpirical: one non-incident edge flip changes only
// two entries, each by at most 1.
func TestJaccardSensitivityEmpirical(t *testing.T) {
	err := quick.Check(func(seed int64, directedFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(8), directedFlag, 0.4)
		r := rng.Intn(g.NumNodes())
		before, err := denseVector(Jaccard{}, g, r)
		if err != nil {
			return false
		}
		u := rng.Intn(g.NumNodes())
		v := rng.Intn(g.NumNodes())
		if u == v || u == r || v == r {
			return true
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}
		after, err := denseVector(Jaccard{}, g, r)
		if err != nil {
			return false
		}
		var l1 float64
		changed := 0
		for i := range before {
			d := math.Abs(after[i] - before[i])
			if d > 0 {
				changed++
				if d > 1+1e-12 {
					return false
				}
			}
			l1 += d
		}
		return changed <= 2 && l1 <= 2+1e-9
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

func TestJaccardExchangeability(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := randomGraph(rng, n, false, 0.4)
		r := rng.Intn(n)
		perm := rng.Perm(n)
		for i, p := range perm {
			if p == r {
				perm[i], perm[r] = perm[r], perm[i]
				break
			}
		}
		h, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		ug, err := denseVector(Jaccard{}, g, r)
		if err != nil {
			return false
		}
		uh, err := denseVector(Jaccard{}, h, r)
		if err != nil {
			return false
		}
		for i := range ug {
			if math.Abs(ug[i]-uh[perm[i]]) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
