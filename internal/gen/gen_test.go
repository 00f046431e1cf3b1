package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"socialrec/internal/distribution"
)

func TestErdosRenyiGNM(t *testing.T) {
	rng := distribution.NewRNG(1)
	g, err := ErdosRenyiGNM(50, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 || g.NumEdges() != 100 {
		t.Errorf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if g.Directed() {
		t.Error("should be undirected")
	}
}

func TestErdosRenyiGNMErrors(t *testing.T) {
	rng := distribution.NewRNG(1)
	if _, err := ErdosRenyiGNM(3, 4, rng); err == nil {
		t.Error("too many edges accepted")
	}
	if _, err := ErdosRenyiGNM(-1, 0, rng); err == nil {
		t.Error("negative n accepted")
	}
}

func TestErdosRenyiGNMComplete(t *testing.T) {
	rng := distribution.NewRNG(2)
	g, err := ErdosRenyiGNM(5, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10 {
		t.Errorf("complete graph should have 10 edges, got %d", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := distribution.NewRNG(4)
	g, err := BarabasiAlbert(200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Errorf("n = %d", g.NumNodes())
	}
	// Clique on 4 nodes (6 edges) + 196 nodes * 3 edges.
	if want := 6 + 196*3; g.NumEdges() != want {
		t.Errorf("m = %d, want %d", g.NumEdges(), want)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Every node has degree >= m.
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) < 3 {
			t.Errorf("node %d degree %d < m", v, g.Degree(v))
		}
	}
	// Preferential attachment produces hubs: max degree well above m.
	if g.MaxDegree() < 10 {
		t.Errorf("max degree %d suspiciously small for BA", g.MaxDegree())
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	rng := distribution.NewRNG(5)
	if _, err := BarabasiAlbert(3, 3, rng); err == nil {
		t.Error("n <= m accepted")
	}
	if _, err := BarabasiAlbert(10, 0, rng); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := distribution.NewRNG(6)
	g, err := WattsStrogatz(100, 4, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Errorf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Ring lattice has exactly n*k/2 edges; rewiring preserves the count
	// unless an attempt exhausts retries, so allow small deficit.
	if m := g.NumEdges(); m < 190 || m > 200 {
		t.Errorf("m = %d, want ~200", m)
	}
}

func TestWattsStrogatzZeroBeta(t *testing.T) {
	rng := distribution.NewRNG(7)
	g, err := WattsStrogatz(10, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Pure ring lattice: every node has degree exactly k.
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("node %d degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	rng := distribution.NewRNG(8)
	if _, err := WattsStrogatz(10, 3, 0.1, rng); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(4, 4, 0.1, rng); err == nil {
		t.Error("k >= n accepted")
	}
}

func TestPowerLawConfiguration(t *testing.T) {
	rng := distribution.NewRNG(9)
	g, err := PowerLawConfiguration(1000, 5000, 1, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1000 {
		t.Errorf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Collisions drop some edges; expect within 30% of target.
	if m := g.NumEdges(); m < 3500 || m > 5000 {
		t.Errorf("m = %d, want near 5000", m)
	}
	// Heavy tail: the max degree should far exceed the mean (10).
	if g.MaxDegree() < 30 {
		t.Errorf("max degree %d lacks heavy tail", g.MaxDegree())
	}
}

func TestPowerLawConfigurationErrors(t *testing.T) {
	rng := distribution.NewRNG(10)
	if _, err := PowerLawConfiguration(1, 5, 0, 1.5, rng); err == nil {
		t.Error("n<2 accepted")
	}
	if _, err := PowerLawConfiguration(10, 5, 0, 0.5, rng); err == nil {
		t.Error("exponent<=1 accepted")
	}
}

func TestDirectedPreferentialAttachment(t *testing.T) {
	rng := distribution.NewRNG(11)
	g, err := DirectedPreferentialAttachment(2000, 10000, 100, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Fatal("should be directed")
	}
	if g.NumNodes() != 2000 {
		t.Errorf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if m := g.NumEdges(); m < 2000 || m > 12000 {
		t.Errorf("m = %d, want near 10000", m)
	}
	// Node 0 got the hub boost: it should have a large in-degree.
	if g.InDegree(0) < 50 {
		t.Errorf("hub in-degree %d, want >> average", g.InDegree(0))
	}
}

func TestDirectedPreferentialAttachmentErrors(t *testing.T) {
	rng := distribution.NewRNG(12)
	if _, err := DirectedPreferentialAttachment(1, 10, 0, 2, rng); err == nil {
		t.Error("n<2 accepted")
	}
	if _, err := DirectedPreferentialAttachment(10, 10, -1, 2, rng); err == nil {
		t.Error("negative hub boost accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	g1, err := BarabasiAlbert(100, 2, distribution.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BarabasiAlbert(100, 2, distribution.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Error("same seed produced different graphs")
	}
}

func TestWikiVoteLikeScaled(t *testing.T) {
	g, err := WikiVoteLikeScaled(10, distribution.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Directed() {
		t.Error("wiki-vote graph should be undirected")
	}
	if g.NumNodes() != WikiVoteNodes/10 {
		t.Errorf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Density should track the real dataset's m/n ≈ 14.2 within a factor.
	ratio := float64(g.NumEdges()) / float64(g.NumNodes())
	if ratio < 7 || ratio > 17 {
		t.Errorf("m/n = %g, want near 14", ratio)
	}
}

func TestTwitterLikeScaled(t *testing.T) {
	g, err := TwitterLikeScaled(50, distribution.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Error("twitter graph should be directed")
	}
	if g.NumNodes() != TwitterNodes/50 {
		t.Errorf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestScaleClampedToOne(t *testing.T) {
	g, err := WikiVoteLikeScaled(0, distribution.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != WikiVoteNodes {
		t.Errorf("scale 0 should clamp to 1, n = %d", g.NumNodes())
	}
}

func TestPropertyGeneratedGraphsValid(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		ba, err := BarabasiAlbert(n, 2, rng)
		if err != nil || ba.Validate() != nil {
			return false
		}
		pl, err := PowerLawConfiguration(n, n*3, 1, 1.6, rng)
		if err != nil || pl.Validate() != nil {
			return false
		}
		dp, err := DirectedPreferentialAttachment(n, n*3, 5, 2.0, rng)
		if err != nil || dp.Validate() != nil {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}
