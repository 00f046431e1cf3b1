package socialrec

import (
	"math/rand"
	"sync"
	"testing"

	"socialrec/internal/gen"
)

// smallSupportTarget finds a serveable target with a small nonzero support
// (chunky chi-squared cells) on the given recommender.
func smallSupportTarget(t *testing.T, rec *Recommender) (int, *cachedVector) {
	t.Helper()
	st := rec.state.Load()
	for cand := 0; cand < st.snap.NumNodes(); cand++ {
		v, err := rec.vector(st, cand)
		if err != nil {
			continue
		}
		if v.len() >= 2 && v.len() <= 6 && v.ncand > v.len() {
			return cand, v
		}
	}
	t.Fatal("no target with a small support found")
	return -1, nil
}

// TestConcurrentCachedDrawsIndependentGOF: many goroutines hammer one
// target through a cached recommender, each request drawing from its own
// RequestRNG stream, so every draw reads the same shared cache entry. The
// empirical recommendation distribution must match a sequential, uncached
// recommender's (two-sample chi-squared): sharing the pre-noise stage must
// not correlate or shift the noise draws.
func TestConcurrentCachedDrawsIndependentGOF(t *testing.T) {
	crit := map[int]float64{ // alpha = 1e-3
		2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
	}
	g, err := gen.PowerLawConfiguration(150, 220, 1, 1.2, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewRecommender(g, WithEpsilon(1), WithSeed(4), WithCache(256))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	target, cv := smallSupportTarget(t, cached)
	cellOf := func(node int) int {
		for i, id := range cv.nodes() {
			if int(id) == node {
				return i
			}
		}
		return cv.len() // the zero-utility tail
	}
	cells := cv.len() + 1

	const trials = 60000
	const workers = 16
	before, _ := cached.CacheStats()
	concurrent := make([]int, cells)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, cells)
			for i := 0; i < trials/workers; i++ {
				recd, err := cached.RecommendWithRNG(target, cached.RequestRNG())
				if err != nil {
					t.Error(err)
					return
				}
				local[cellOf(recd.Node)]++
			}
			mu.Lock()
			for i, n := range local {
				concurrent[i] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if after, _ := cached.CacheStats(); after.Misses != before.Misses || after.Hits-before.Hits != trials {
		t.Fatalf("draws were not all cache hits (stats %+v -> %+v) — the test would prove nothing", before, after)
	}

	plain, err := NewRecommender(g, WithEpsilon(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sequential := make([]int, cells)
	rng := rand.New(rand.NewSource(202))
	for i := 0; i < trials; i++ {
		recd, err := plain.RecommendWithRNG(target, rng)
		if err != nil {
			t.Fatal(err)
		}
		sequential[cellOf(recd.Node)]++
	}

	stat := 0.0
	for i := range concurrent {
		n := float64(concurrent[i] + sequential[i])
		if n == 0 {
			continue
		}
		d := float64(concurrent[i] - sequential[i])
		stat += d * d / n
	}
	c, ok := crit[cells-1]
	if !ok {
		t.Fatalf("no critical value for df=%d", cells-1)
	}
	if stat > c {
		t.Fatalf("target %d: concurrent cached draws diverge from sequential: chi-squared %.3f > %.3f\nconcurrent: %v\nsequential: %v",
			target, stat, c, concurrent, sequential)
	}
}

// TestRecommendRepeatIsIdentical pins Recommend's documented randomness:
// the stream is keyed by (seed, target), so on one snapshot a repeated
// Recommend (or RecommendTopK) for a target returns exactly the same
// answer. Independent draws come from RequestRNG streams instead, which
// must not all repeat one pick.
func TestRecommendRepeatIsIdentical(t *testing.T) {
	g := biggerGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(0.1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	checked, varied := 0, 0
	for target := 0; target < g.NumNodes() && checked < 50; target++ {
		first, err := rec.Recommend(target)
		if err != nil {
			continue
		}
		checked++
		for i := 0; i < 3; i++ {
			if again, err := rec.Recommend(target); err != nil || again != first {
				t.Fatalf("target %d: repeat %d = %+v (err %v), want %+v", target, i, again, err, first)
			}
		}
		topFirst, err := rec.RecommendTopK(target, 3)
		if err != nil {
			t.Fatal(err)
		}
		topAgain, err := rec.RecommendTopK(target, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range topFirst {
			if topAgain[i] != topFirst[i] {
				t.Fatalf("target %d: top-k repeat rank %d = %+v, want %+v", target, i, topAgain[i], topFirst[i])
			}
		}
		for i := 0; i < 8; i++ {
			if d, err := rec.RecommendWithRNG(target, rec.RequestRNG()); err == nil && d.Node != first.Node {
				varied++
				break
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d serveable targets checked", checked)
	}
	if varied == 0 {
		t.Fatal("RequestRNG draws never differed from the target-keyed pick")
	}
}
