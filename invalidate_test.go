package socialrec

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"socialrec/internal/fault"
	"socialrec/internal/utility"
)

// equalCachedVector reports field-wise bit-identity of two pre-processing
// results — the retention invariant: a cached entry carried across a
// snapshot swap must be indistinguishable from a fresh recompute.
func equalCachedVector(a, b *cachedVector) bool {
	if a.umax != b.umax || a.ncand != b.ncand {
		return false
	}
	if !slices.Equal(a.nodes(), b.nodes()) || !slices.Equal(a.code, b.code) || !slices.Equal(a.val, b.val) {
		return false
	}
	if (a.cdf == nil) != (b.cdf == nil) {
		return false
	}
	if a.cdf != nil {
		if !slices.Equal(a.cdf.Code, b.cdf.Code) ||
			!slices.Equal(a.cdf.Val, b.cdf.Val) ||
			!slices.Equal(a.cdf.Blocks, b.cdf.Blocks) ||
			a.cdf.Scale != b.cdf.Scale ||
			a.cdf.UMax != b.cdf.UMax ||
			a.cdf.TailWeight != b.cdf.TailWeight ||
			a.cdf.Tail != b.cdf.Tail ||
			a.cdf.Total != b.cdf.Total {
			return false
		}
	}
	return true
}

// cachedAt returns the targets and entries cached at epoch.
func cachedAt(rec *Recommender, epoch uint64) map[int]*cachedVector {
	c := rec.cache
	out := make(map[int]*cachedVector)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if key.epoch == epoch {
				out[key.target] = el.Value.(*cacheEntry).val
			}
		}
		s.mu.Unlock()
	}
	return out
}

// verifyRetainedEntries asserts that every cache entry keyed at the current
// epoch equals a from-scratch recompute on the current snapshot. Safe to
// run with concurrent readers (they only insert entries computed from the
// same published state) as long as no concurrent rebuild can swap epochs.
func verifyRetainedEntries(t *testing.T, rec *Recommender) {
	t.Helper()
	st := rec.state.Load()
	for target, cv := range cachedAt(rec, st.epoch) {
		want, err := rec.computeVector(st, target)
		if err != nil {
			t.Fatalf("recompute target %d: %v", target, err)
		}
		if !equalCachedVector(cv, want) {
			t.Fatalf("target %d: cached entry diverges from fresh recompute after rebuild\ncached: idx=%v code=%v val=%v umax=%g ncand=%d\nwant:   idx=%v code=%v val=%v umax=%g ncand=%d",
				target, cv.nodes(), cv.code, cv.val, cv.umax, cv.ncand,
				want.nodes(), want.code, want.val, want.umax, want.ncand)
		}
	}
}

// verifyRetainedAnswers asserts that every target cached at the current
// epoch answers fixed-RNG single and top-3 requests exactly as a fresh
// uncached Recommender over the current graph does. A retained entry's
// tail picks resolve through the live out-row, so this fails if a swap
// retained an entry whose target's row changed.
func verifyRetainedAnswers(t *testing.T, rec *Recommender, u UtilityFunction) {
	t.Helper()
	g, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRecommender(g, WithUtility(u))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for target := range cachedAt(rec, rec.state.Load().epoch) {
		seed := int64(target)
		a, errA := rec.RecommendWithRNG(target, rand.New(rand.NewSource(seed)))
		b, errB := fresh.RecommendWithRNG(target, rand.New(rand.NewSource(seed)))
		if !sameError(errA, errB) || a != b {
			t.Fatalf("target %d: retained %+v (err %v) vs fresh %+v (err %v)", target, a, errA, b, errB)
		}
		as, errA := rec.RecommendTopKWithRNG(target, 3, rand.New(rand.NewSource(seed)))
		bs, errB := fresh.RecommendTopKWithRNG(target, 3, rand.New(rand.NewSource(seed)))
		if !sameError(errA, errB) || !slices.Equal(as, bs) {
			t.Fatalf("target %d top-3: retained %+v (err %v) vs fresh %+v (err %v)", target, as, errA, bs, errB)
		}
	}
}

// mutateOnce toggles a random edge, tolerating races and duplicates.
func mutateOnce(t *testing.T, rec *Recommender, rng *rand.Rand, n int) {
	t.Helper()
	u, v := rng.Intn(n), rng.Intn(n)
	if u == v {
		return
	}
	switch err := rec.AddEdge(u, v); {
	case err == nil:
	case errors.Is(err, ErrDuplicateEdge):
		if err := rec.RemoveEdge(u, v); err != nil && !errors.Is(err, ErrMissingEdge) {
			t.Fatalf("RemoveEdge(%d,%d): %v", u, v, err)
		}
	default:
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func TestCacheCapacityHonorsRequestedSize(t *testing.T) {
	g := biggerGraph(t)
	for _, size := range []int{100, 16, 5, 1} {
		rec, err := NewRecommender(g, WithCache(size))
		if err != nil {
			t.Fatal(err)
		}
		for target := 0; target < g.NumNodes(); target++ {
			_, _ = rec.Recommend(target)
		}
		st, ok := rec.CacheStats()
		if !ok {
			t.Fatal("cache not enabled")
		}
		if st.Capacity != size {
			t.Fatalf("WithCache(%d): reported capacity %d", size, st.Capacity)
		}
		if st.Entries > size {
			t.Fatalf("WithCache(%d): admitted %d entries", size, st.Entries)
		}
	}
}

func TestCacheSweepDropsDeadEpochResidue(t *testing.T) {
	g := biggerGraph(t)
	rec, err := NewRecommender(g, WithCache(512),
		WithRebuildInterval(time.Hour), // only the explicit Rebuild swaps
		WithMaxPendingDeltas(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for target := 0; target < 100; target++ {
		_, _ = rec.Recommend(target)
	}
	before, _ := rec.CacheStats()
	if before.Entries == 0 || before.Bytes == 0 {
		t.Fatalf("warmup produced no entries: %+v", before)
	}
	// A node addition changes every target's candidate count, so this swap
	// must flush the whole cache.
	if _, err := rec.AddNode(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// The swap must sweep dead-epoch entries immediately — operators should
	// never see a "warm" cache that is 100% unusable.
	after, _ := rec.CacheStats()
	if after.Entries != 0 || after.Bytes != 0 {
		t.Fatalf("dead-epoch residue after swap: %+v", after)
	}
	if after.Invalidated != uint64(before.Entries) {
		t.Fatalf("Invalidated = %d, want %d", after.Invalidated, before.Entries)
	}
	if after.Retained != 0 {
		t.Fatalf("a node addition must full-flush, retained %d", after.Retained)
	}
}

func TestAddNodeErrorReturnsInvalidID(t *testing.T) {
	g, err := GenerateSocialGraph(20, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := rec.AddNode(); err == nil || id != -1 {
		t.Fatalf("AddNode on non-live recommender: id=%d err=%v, want -1 and ErrNotLive", id, err)
	}
}

// TestCacheRetentionIsDefault: a Recommender with a cache and live
// mutations retains entries across an edge-only rebuild without any
// further option, and every retained entry equals a fresh recompute.
func TestCacheRetentionIsDefault(t *testing.T) {
	const n = 800
	g, err := GenerateSocialGraph(n, 3200, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithCache(n), WithLiveMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for target := 0; target < n; target++ {
		_, _ = rec.Recommend(target) // hopeless targets cache negatives
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		mutateOnce(t, rec, rng, n)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.CacheStats()
	if st.Retained == 0 {
		t.Fatalf("edge-only rebuild retained nothing: %+v", st)
	}
	verifyRetainedEntries(t, rec)
}

// TestCacheRetentionAfterFailedRebuild pins that a failed rebuild costs
// the cache nothing: its batch stays pending, so the retried rebuild still
// sees the whole diff between the two snapshots and retains every entry
// outside its touched set.
func TestCacheRetentionAfterFailedRebuild(t *testing.T) {
	defer fault.Reset()
	const n = 800
	g, err := GenerateSocialGraph(n, 3200, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithCache(n), WithLiveMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for target := 0; target < n; target++ {
		_, _ = rec.Recommend(target) // hopeless targets cache negatives
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		mutateOnce(t, rec, rng, n)
	}
	fault.Arm("live.rebuild", fault.Config{Mode: fault.Error})
	if err := rec.Rebuild(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Rebuild = %v, want injected error", err)
	}
	fault.Reset()
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.CacheStats()
	if st.Retained == 0 {
		t.Fatalf("rebuild after a failed one retained nothing: %+v", st)
	}
	verifyRetainedEntries(t, rec)
}

// TestCacheRetentionAcrossRebuild is the deterministic retention property
// test, run for every localized utility on an undirected and a directed
// graph: warm the whole cache, churn edges, rebuild, and assert (a) every
// entry at the new epoch is bit-identical to a fresh recompute, (b) it
// serves the answers a fresh uncached Recommender gives, and (c) retention
// actually happens (the sweep is not just a disguised flush).
func TestCacheRetentionAcrossRebuild(t *testing.T) {
	const n = 3000
	utilities := []struct {
		name string
		u    UtilityFunction
	}{
		{"common-neighbors", utility.CommonNeighbors{}},
		{"jaccard", utility.Jaccard{}},
		{"weighted-paths-2", utility.WeightedPaths{Gamma: 0.05, MaxLen: 2}},
		{"weighted-paths-3", utility.WeightedPaths{Gamma: 0.05, MaxLen: 3}},
		{"weighted-paths-4", utility.WeightedPaths{Gamma: 0.05, MaxLen: 4}},
	}
	graphs := []struct {
		name string
		gen  func(n, m int, seed int64) (*Graph, error)
	}{
		{"social", GenerateSocialGraph},
		{"follower", GenerateFollowerGraph},
	}
	for _, uc := range utilities {
		for _, gc := range graphs {
			t.Run(gc.name+"/"+uc.name, func(t *testing.T) {
				t.Parallel()
				g, err := gc.gen(n, 9000, 5)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := NewRecommender(g, WithSeed(3), WithUtility(uc.u),
					WithRebuildInterval(time.Hour), // only explicit Rebuild swaps
					WithMaxPendingDeltas(1<<30),
					WithCache(n))
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				for target := 0; target < n; target++ {
					_, _ = rec.Recommend(target) // hopeless targets cache negatives
				}
				rng := rand.New(rand.NewSource(42))
				for round := 0; round < 20; round++ {
					for i, muts := 0, 1+rng.Intn(8); i < muts; i++ {
						mutateOnce(t, rec, rng, n)
					}
					if err := rec.Rebuild(); err != nil {
						t.Fatal(err)
					}
					verifyRetainedEntries(t, rec)
					if round == 0 || round == 19 { // a full answer check costs a fresh kernel run per target
						verifyRetainedAnswers(t, rec, uc.u)
					}
					for i := 0; i < 200; i++ { // keep the cache populated
						_, _ = rec.Recommend(rng.Intn(n))
					}
				}
				st, _ := rec.CacheStats()
				if st.Retained == 0 {
					t.Fatal("delta invalidation retained nothing across 20 rebuilds")
				}
				if st.Invalidated == 0 {
					t.Fatal("delta invalidation invalidated nothing across 20 rebuilds of edge churn")
				}
				t.Logf("retained %d, invalidated %d", st.Retained, st.Invalidated)
			})
		}
	}
}

// TestCacheRetentionHammer runs the retention check against concurrent
// readers (meaningful under -race): readers keep serving and inserting
// while the main goroutine churns edges, rebuilds, and verifies after every
// swap.
func TestCacheRetentionHammer(t *testing.T) {
	const (
		n       = 800
		readers = 4
		rounds  = 12
	)
	g, err := GenerateSocialGraph(n, 3200, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithSeed(7),
		WithRebuildInterval(time.Hour),
		WithMaxPendingDeltas(1<<30),
		WithCache(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rec.Recommend(rng.Intn(n)); err != nil && !errors.Is(err, ErrNoCandidates) {
					t.Errorf("Recommend: %v", err)
					return
				}
			}
		}(int64(300 + m))
	}
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < rounds && !t.Failed(); round++ {
		for i := 0; i < 150; i++ {
			_, _ = rec.Recommend(rng.Intn(n))
		}
		for i, muts := 0, 1+rng.Intn(6); i < muts; i++ {
			mutateOnce(t, rec, rng, n)
		}
		if err := rec.Rebuild(); err != nil {
			t.Fatal(err)
		}
		verifyRetainedEntries(t, rec)
	}
	close(stop)
	wg.Wait()
	st, _ := rec.CacheStats()
	if st.Retained == 0 {
		t.Fatal("hammer retained nothing")
	}
}

// FuzzCacheRetention interprets the fuzz input as a mutation script over a
// small live graph and re-verifies the retention invariant after every
// rebuild. The seed corpus exercises the trickiest case: an edge add that
// creates brand-new support for a previously hopeless (umax == 0) cached
// target, which a naive "support intersects batch" rule would retain stale
// (its old support is empty and intersects nothing).
func FuzzCacheRetention(f *testing.F) {
	// Base graph (12 nodes): target 0's only edge is 0-1, and node 1 has no
	// other neighbors, so 0 has no 2-hop candidate: umax == 0, cached as a
	// negative entry. Adding (1, 2) creates support {2} out of nothing.
	f.Add([]byte{0, 1, 2, 3, 0, 0})             // add(1,2); rebuild
	f.Add([]byte{0, 5, 9, 3, 0, 0, 1, 2, 3, 3}) // add(5,9); rebuild; remove(2,3); rebuild
	f.Add([]byte{2, 0, 0, 0, 1, 2, 3, 0, 0})    // addnode; add(1,2); rebuild
	f.Fuzz(func(t *testing.T, script []byte) {
		g := NewGraph(12)
		for _, e := range [][2]int{{0, 1}, {2, 3}, {3, 4}, {2, 4}, {5, 6}, {6, 7}, {5, 7}, {8, 9}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := NewRecommender(g, WithSeed(5),
			WithRebuildInterval(time.Hour),
			WithMaxPendingDeltas(1<<30),
			WithCache(64))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		warm := func() {
			nn := rec.state.Load().snap.NumNodes()
			for i := 0; i < nn; i++ {
				_, _ = rec.Recommend(i)
			}
		}
		warm()
		nodes := 12
		for i := 0; i+2 < len(script) && i < 3*64; i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			u, v := int(a)%nodes, int(b)%nodes
			switch op % 4 {
			case 0:
				if u != v {
					if err := rec.AddEdge(u, v); err != nil && !errors.Is(err, ErrDuplicateEdge) {
						t.Fatal(err)
					}
				}
			case 1:
				if u != v {
					if err := rec.RemoveEdge(u, v); err != nil && !errors.Is(err, ErrMissingEdge) {
						t.Fatal(err)
					}
				}
			case 2:
				if nodes < 48 {
					if id, err := rec.AddNode(); err != nil || id != nodes {
						t.Fatalf("AddNode: id=%d err=%v, want %d", id, err, nodes)
					}
					nodes++
				}
			case 3:
				if err := rec.Rebuild(); err != nil {
					t.Fatal(err)
				}
				verifyRetainedEntries(t, rec)
				warm()
			}
		}
		if err := rec.Rebuild(); err != nil {
			t.Fatal(err)
		}
		verifyRetainedEntries(t, rec)
		// End-to-end staleness check: a target that gained support must now
		// serve a recommendation, never a cached "no candidates".
		st := rec.state.Load()
		for target := 0; target < nodes; target++ {
			want, err := rec.computeVector(st, target)
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := rec.Recommend(target)
			if want.umax > 0 && rerr != nil {
				t.Fatalf("target %d has umax %g but Recommend failed: %v", target, want.umax, rerr)
			}
			if want.umax == 0 && !errors.Is(rerr, ErrNoCandidates) {
				t.Fatalf("target %d is hopeless but Recommend returned %v", target, rerr)
			}
		}
	})
}
