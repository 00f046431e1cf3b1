package socialrec

// Property tests that the two sources of a request's support — the utility
// kernel's stream (no cache) and a cached entry — give bit-identical
// answers: same seed, same graph, and the two arms must return the same
// recommendation and the same errors for every target, across all
// utilities, mechanisms, directedness, and both the single-draw and top-k
// APIs. The streamed arm is simply the default recommender (no cache); the
// control arm is the identical construction plus WithCache, whose
// exponential draws go through the cached CDF.

import (
	"errors"
	"math/rand"
	"testing"

	"socialrec/internal/distribution"
)

func streamingMechanisms() []MechanismKind {
	return []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone}
}

// sameError demands the same outcome down to the message: the streamed
// source must reproduce the cached error strings, not just the sentinels.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func TestStreamingBitIdenticalToMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 41)
		for _, u := range servingUtilities() {
			for _, kind := range streamingMechanisms() {
				opts := []Option{WithEpsilon(1), WithSeed(7), WithUtility(u), WithMechanism(kind)}
				streamed, err := NewRecommender(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := NewRecommender(g, append(opts, WithCache(0))...)
				if err != nil {
					t.Fatal(err)
				}
				for target := 0; target < g.NumNodes(); target++ {
					a, err1 := streamed.Recommend(target)
					b, err2 := cached.Recommend(target)
					if !sameError(err1, err2) {
						t.Fatalf("%s/%v directed=%v target %d: streamed err %v vs cached err %v",
							u.Name(), kind, directed, target, err1, err2)
					}
					if a != b {
						t.Fatalf("%s/%v directed=%v target %d: streamed %+v vs cached %+v",
							u.Name(), kind, directed, target, a, b)
					}
				}
				streamed.Close()
				cached.Close()
			}
		}
	}
}

func TestStreamingTopKBitIdenticalToMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 43)
		for _, u := range servingUtilities() {
			for _, kind := range streamingMechanisms() {
				opts := []Option{WithEpsilon(1), WithSeed(11), WithUtility(u), WithMechanism(kind)}
				streamed, err := NewRecommender(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := NewRecommender(g, append(opts, WithCache(0))...)
				if err != nil {
					t.Fatal(err)
				}
				for target := 0; target < g.NumNodes(); target++ {
					for _, k := range []int{1, 3, 7} {
						a, err1 := streamed.RecommendTopK(target, k)
						b, err2 := cached.RecommendTopK(target, k)
						if !sameError(err1, err2) {
							t.Fatalf("%s/%v directed=%v target %d k=%d: streamed err %v vs cached err %v",
								u.Name(), kind, directed, target, k, err1, err2)
						}
						if len(a) != len(b) {
							t.Fatalf("%s/%v directed=%v target %d k=%d: streamed %d picks vs cached %d",
								u.Name(), kind, directed, target, k, len(a), len(b))
						}
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("%s/%v directed=%v target %d k=%d: pick %d streamed %+v vs cached %+v",
									u.Name(), kind, directed, target, k, i, a[i], b[i])
							}
						}
					}
				}
				streamed.Close()
				cached.Close()
			}
		}
	}
}

// TestStreamingErrorsMatchMaterialized pins the RNG-silent error paths: a
// bad target and a hopeless (no-candidate) target must produce the same
// sentinel through both sources.
func TestStreamingErrorsMatchMaterialized(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	streamed, err := NewRecommender(g, WithEpsilon(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer streamed.Close()
	cached, err := NewRecommender(g, WithEpsilon(1), WithSeed(1), WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	for _, target := range []int{-1, 4} {
		if _, err := streamed.Recommend(target); !errors.Is(err, ErrBadTarget) {
			t.Fatalf("streamed Recommend(%d): %v, want ErrBadTarget", target, err)
		}
		if _, err := streamed.RecommendTopK(target, 1); !errors.Is(err, ErrBadTarget) {
			t.Fatalf("streamed RecommendTopK(%d): %v, want ErrBadTarget", target, err)
		}
	}
	// Node 3 is isolated: no common neighbors with anyone, so no candidate
	// has positive utility.
	for _, rec := range []*Recommender{streamed, cached} {
		if _, err := rec.Recommend(3); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("Recommend(3): %v, want ErrNoCandidates", err)
		}
	}
}

// TestStreamingSteadyStateAllocs pins the tentpole's zero-alloc claim: once
// the pools are warm, a streamed request with caller-supplied randomness
// performs (essentially) no heap allocations — all scratch is pooled. The
// bound leaves one allocation of headroom for pool refills after an
// ill-timed GC.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	g := servingTestGraph(t, false, 47)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	targets := serveableTargets(t, rec, g, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ { // warm every pool
		if _, err := rec.RecommendWithRNG(targets[i%len(targets)], rng); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		_, _ = rec.RecommendWithRNG(targets[i%len(targets)], rng)
		i++
	})
	if allocs > 1 {
		t.Fatalf("streamed Recommend allocates %.2f/op in steady state; want <= 1", allocs)
	}
}

// TestCachedSteadyStateAllocs pins cache-hit allocations: once the cache
// and the pools are warm, a single draw allocates nothing under any
// mechanism — the cached entry reaches the streaming draw through a pooled
// scorer — and a top-3 release allocates no more than its result slices
// and per-mechanism scratch need.
func TestCachedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	g := servingTestGraph(t, false, 47)
	topKMax := map[MechanismKind]float64{
		MechanismExponential: 2,
		MechanismLaplace:     7,
		MechanismSmoothing:   5,
		MechanismNone:        4,
	}
	for _, kind := range streamingMechanisms() {
		rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(1), WithMechanism(kind), WithCache(0))
		if err != nil {
			t.Fatal(err)
		}
		targets := serveableTargets(t, rec, g, 8)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 100; i++ { // warm the cache and every pool
			if _, err := rec.RecommendWithRNG(targets[i%len(targets)], rng); err != nil {
				t.Fatal(err)
			}
			if _, err := rec.RecommendTopKWithRNG(targets[i%len(targets)], 3, rng); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		single := testing.AllocsPerRun(500, func() {
			_, _ = rec.RecommendWithRNG(targets[i%len(targets)], rng)
			i++
		})
		topK := testing.AllocsPerRun(500, func() {
			_, _ = rec.RecommendTopKWithRNG(targets[i%len(targets)], 3, rng)
			i++
		})
		rec.Close()
		t.Logf("%v: Recommend %.0f allocs/op, RecommendTopK(3) %.0f allocs/op", kind, single, topK)
		if single != 0 {
			t.Errorf("%v: cached Recommend allocates %.0f/op; want 0", kind, single)
		}
		if topK > topKMax[kind] {
			t.Errorf("%v: cached RecommendTopK(3) allocates %.0f/op; want <= %.0f", kind, topK, topKMax[kind])
		}
	}
}

// serveableTargets returns up to want targets with at least one
// positive-utility candidate.
func serveableTargets(t *testing.T, rec *Recommender, g *Graph, want int) []int {
	t.Helper()
	var targets []int
	rng := distribution.SplitN(1, "probe", 0)
	for v := 0; v < g.NumNodes() && len(targets) < want; v++ {
		if _, err := rec.RecommendWithRNG(v, rng); err == nil {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		t.Fatal("no serveable targets in fixture graph")
	}
	return targets
}
