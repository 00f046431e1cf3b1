package socialrec

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
)

func biggerGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := gen.WikiVoteLikeScaled(20, distribution.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCachedMatchesUncached(t *testing.T) {
	g := biggerGraph(t)
	for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone} {
		plain, err := NewRecommender(g, WithMechanism(kind), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := NewRecommender(g, WithMechanism(kind), WithSeed(3), WithCache(256))
		if err != nil {
			t.Fatal(err)
		}
		for target := 0; target < 50; target++ {
			for round := 0; round < 3; round++ { // rounds 2+ hit the cache
				want, errW := plain.Recommend(target)
				got, errG := cached.Recommend(target)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%v target %d: errors diverge: %v vs %v", kind, target, errW, errG)
				}
				if want != got {
					t.Fatalf("%v target %d round %d: cached %+v != uncached %+v", kind, target, round, got, want)
				}
				wantK, errW := plain.RecommendTopK(target, 3)
				gotK, errG := cached.RecommendTopK(target, 3)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%v target %d: top-k errors diverge: %v vs %v", kind, target, errW, errG)
				}
				for i := range wantK {
					if wantK[i] != gotK[i] {
						t.Fatalf("%v target %d: top-k[%d] %+v != %+v", kind, target, i, gotK[i], wantK[i])
					}
				}
				// The explicit-RNG path the HTTP layer uses: identical
				// streams must yield identical draws.
				want, errW = plain.RecommendWithRNG(target, rand.New(rand.NewSource(int64(target+round))))
				got, errG = cached.RecommendWithRNG(target, rand.New(rand.NewSource(int64(target+round))))
				if (errW == nil) != (errG == nil) || want != got {
					t.Fatalf("%v target %d round %d: WithRNG cached %+v (%v) != uncached %+v (%v)", kind, target, round, got, errG, want, errW)
				}
			}
		}
		st, ok := cached.CacheStats()
		if !ok {
			t.Fatalf("%v: cache not enabled", kind)
		}
		if st.Hits == 0 || st.Misses == 0 {
			t.Errorf("%v: expected both hits and misses, got %+v", kind, st)
		}
	}
}

func TestCachedAuditsMatchUncached(t *testing.T) {
	g := demoGraph(t)
	plain, err := NewRecommender(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewRecommender(g, WithSeed(5), WithCache(0)) // 0 = default size
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < g.NumNodes(); target++ {
		for round := 0; round < 2; round++ {
			accW, errW := plain.ExpectedAccuracy(target)
			accG, errG := cached.ExpectedAccuracy(target)
			if (errW == nil) != (errG == nil) || accW != accG {
				t.Fatalf("target %d: accuracy %g/%v != %g/%v", target, accG, errG, accW, errW)
			}
			ceilW, errW := plain.AccuracyCeiling(target)
			ceilG, errG := cached.AccuracyCeiling(target)
			if (errW == nil) != (errG == nil) || ceilW != ceilG {
				t.Fatalf("target %d: ceiling %g/%v != %g/%v", target, ceilG, errG, ceilW, errW)
			}
		}
	}
}

func TestCacheEvictionRespectsCapacity(t *testing.T) {
	g := biggerGraph(t)
	rec, err := NewRecommender(g, WithCache(32), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < 500; target++ {
		_, _ = rec.Recommend(target)
	}
	st, ok := rec.CacheStats()
	if !ok {
		t.Fatal("cache not enabled")
	}
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Entries == 0 {
		t.Error("cache empty after 500 requests")
	}
}

func TestCacheNegativeResults(t *testing.T) {
	g := NewGraph(3) // no edges: every target is hopeless
	rec, err := NewRecommender(g, WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := rec.Recommend(0); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("round %d: want ErrNoCandidates, got %v", round, err)
		}
	}
	st, _ := rec.CacheStats()
	if st.Hits == 0 {
		t.Errorf("negative result not served from cache: %+v", st)
	}
}

func TestRefreshSnapshotAdvancesEpoch(t *testing.T) {
	g := demoGraph(t)
	rec, err := NewRecommender(g, NonPrivate(), WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	before, err := rec.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if before.Node != 3 {
		t.Fatalf("expected node 3 before rewiring, got %d", before.Node)
	}
	// Rewire so node 5 becomes the clear best suggestion for 0 (common
	// neighbors through 1 and 2), then refresh.
	for _, e := range [][2]int{{1, 5}, {2, 5}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.RefreshSnapshot(g); err != nil {
		t.Fatal(err)
	}
	after, err := rec.Recommend(0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Node != 5 {
		t.Errorf("stale snapshot after refresh: recommended %d, want 5", after.Node)
	}
	if err := rec.RefreshSnapshot(nil); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil refresh: want ErrNilGraph, got %v", err)
	}
}

// TestAdvanceRekeyCollisionCountsNeither pins the swap counters when a fresh
// toEpoch entry races ahead of the sweep: the carried copy is dropped, but
// the target still holds a bit-identical entry, so it is neither retained
// nor invalidated.
func TestAdvanceRekeyCollisionCountsNeither(t *testing.T) {
	const target = 5
	c := newVectorCache(256)
	carried, fresh := &cachedVector{}, &cachedVector{}
	c.put(1, target, carried)
	c.put(2, target, fresh)
	c.advance(1, 2, &affectedSet{touched: make([]uint64, 1)}) // touches nothing
	st := c.stats()
	if st.Entries != 1 || st.Retained != 0 || st.Invalidated != 0 {
		t.Fatalf("after colliding re-key: %+v, want Entries=1 Retained=0 Invalidated=0", st)
	}
	if st.Bytes != int64(fresh.bytes()) {
		t.Fatalf("Bytes = %d, want the fresh entry's %d", st.Bytes, fresh.bytes())
	}
	if got, ok := c.get(2, target); !ok || got != fresh {
		t.Fatal("collision must keep the fresh toEpoch entry")
	}
}

// warmCache runs the pre-noise stage of every target on the current
// snapshot through the serving path's miss handling, so each lands in the
// cache (a hopeless target as a negative entry). It fails the test on an
// out-of-range target.
func warmCache(t testing.TB, rec *Recommender, targets []int) {
	t.Helper()
	st := rec.state.Load()
	for _, target := range targets {
		if _, err := rec.vector(st, target); err != nil && !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("warming target %d: %v", target, err)
		}
	}
}

// TestConcurrentCachedRecommender hammers one cached Recommender from many
// goroutines under -race, checking every result against the uncached
// sequential baseline.
func TestConcurrentCachedRecommender(t *testing.T) {
	g := biggerGraph(t)
	baseline, err := NewRecommender(g, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	const targets = 40
	type expected struct {
		rec  Recommendation
		err  bool
		acc  float64
		topK []Recommendation
	}
	want := make([]expected, targets)
	for i := range want {
		rec, err := baseline.Recommend(i)
		want[i] = expected{rec: rec, err: err != nil}
		if err == nil {
			want[i].acc, _ = baseline.ExpectedAccuracy(i)
			want[i].topK, _ = baseline.RecommendTopK(i, 2)
		}
	}

	cached, err := NewRecommender(g, WithSeed(11), WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Non-blocking send: a systematic divergence produces far more errors
	// than the channel holds, and a blocked worker would turn the failure
	// into a test-binary timeout instead of a t.Fatal.
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				target := (w + i) % targets
				rec, err := cached.Recommend(target)
				if want[target].err {
					if err == nil {
						report(errors.New("missing error"))
					}
					continue
				}
				if err != nil || rec != want[target].rec {
					report(errors.Join(err, errors.New("recommendation diverged")))
					continue
				}
				if acc, err := cached.ExpectedAccuracy(target); err != nil || acc != want[target].acc {
					report(errors.Join(err, errors.New("accuracy diverged")))
				}
				if topK, err := cached.RecommendTopK(target, 2); err != nil {
					report(err)
				} else {
					for j := range topK {
						if topK[j] != want[target].topK[j] {
							report(errors.New("top-k diverged"))
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
