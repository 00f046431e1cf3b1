package socialrec

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"socialrec/internal/fault"
)

func TestMutationsRequireLiveMode(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AddEdge(1, 2); !errors.Is(err, ErrNotLive) {
		t.Fatalf("AddEdge on non-live recommender: %v, want ErrNotLive", err)
	}
	if err := rec.RemoveEdge(0, 1); !errors.Is(err, ErrNotLive) {
		t.Fatalf("RemoveEdge: %v, want ErrNotLive", err)
	}
	if _, err := rec.AddNode(); !errors.Is(err, ErrNotLive) {
		t.Fatalf("AddNode: %v, want ErrNotLive", err)
	}
	if err := rec.Rebuild(); !errors.Is(err, ErrNotLive) {
		t.Fatalf("Rebuild: %v, want ErrNotLive", err)
	}
	if _, err := rec.CurrentGraph(); !errors.Is(err, ErrNotLive) {
		t.Fatalf("CurrentGraph: %v, want ErrNotLive", err)
	}
	if _, ok := rec.LiveStats(); ok {
		t.Fatal("LiveStats ok on non-live recommender")
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close on non-live recommender: %v", err)
	}
}

func TestLiveMutationsFoldIntoSnapshot(t *testing.T) {
	// Long interval so only explicit Rebuild swaps snapshots: deterministic.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := NewRecommender(g, WithSeed(3), WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	if v := rec.SnapshotVersion(); v != 0 {
		t.Fatalf("initial SnapshotVersion = %d, want 0", v)
	}
	// Mutating the constructor's graph must not affect the live copy.
	if err := g.AddEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	cur, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if cur.HasEdge(4, 5) {
		t.Fatal("live graph aliases the constructor's graph")
	}

	if err := rec.AddEdge(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := rec.RemoveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddEdge(0, 2); !errors.Is(err, ErrMissingEdge) && err != nil {
		// re-adding a removed edge is legal
		t.Fatalf("re-add: %v", err)
	}
	if got := rec.PendingDeltas(); got != 3 {
		t.Fatalf("PendingDeltas = %d, want 3", got)
	}
	// Invalid mutations surface graph errors and journal nothing.
	if err := rec.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if err := rec.AddEdge(0, 99); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := rec.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := rec.RemoveEdge(3, 5); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("missing: %v", err)
	}
	if got := rec.PendingDeltas(); got != 3 {
		t.Fatalf("PendingDeltas after invalid mutations = %d, want 3", got)
	}

	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := rec.PendingDeltas(); got != 0 {
		t.Fatalf("PendingDeltas after Rebuild = %d, want 0", got)
	}
	if v := rec.SnapshotVersion(); v != 1 {
		t.Fatalf("SnapshotVersion after Rebuild = %d, want 1", v)
	}
	st, ok := rec.LiveStats()
	if !ok || st.Rebuilds != 1 || st.IncrementalRebuilds != 1 {
		t.Fatalf("LiveStats = %+v ok=%v, want 1 rebuild (incremental)", st, ok)
	}
	// Rebuild with nothing pending is a no-op.
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if v := rec.SnapshotVersion(); v != 1 {
		t.Fatalf("no-op Rebuild bumped SnapshotVersion to %d", v)
	}

	// The rebuilt snapshot must answer identically to a fresh Recommender
	// over the mutated graph.
	final, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRecommender(final, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < final.NumNodes(); target++ {
		a, errA := rec.Recommend(target)
		b, errB := fresh.Recommend(target)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("target %d: live err %v vs fresh err %v", target, errA, errB)
		}
		if a != b {
			t.Fatalf("target %d: live %+v vs fresh %+v", target, a, b)
		}
	}
}

func TestLiveAddNodeBecomesRecommendable(t *testing.T) {
	g := NewGraph(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := NewRecommender(g, WithSeed(5), WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	id, err := rec.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("AddNode = %d, want 3", id)
	}
	if err := rec.AddEdge(id, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recommend(id); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("pre-rebuild Recommend(new node): %v, want ErrBadTarget", err)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	recom, err := rec.Recommend(id)
	if err != nil {
		t.Fatalf("post-rebuild Recommend(new node): %v", err)
	}
	// The new node's best candidates are 0 and 2 (via common neighbor 1).
	if recom.MaxUtility != 1 {
		t.Fatalf("new node MaxUtility = %g, want 1", recom.MaxUtility)
	}
}

func TestLiveBackgroundRebuilderDebounces(t *testing.T) {
	g, err := GenerateSocialGraph(80, 320, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithSeed(2), WithRebuildInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(80), rng.Intn(80)
		if u == v {
			continue
		}
		if err := rec.AddEdge(u, v); err != nil && !errors.Is(err, ErrDuplicateEdge) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.PendingDeltas() > 0 || rec.SnapshotVersion() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background rebuilder never folded deltas: pending=%d version=%d",
				rec.PendingDeltas(), rec.SnapshotVersion())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLiveMaxPendingDeltasKicksRebuild(t *testing.T) {
	g, err := GenerateSocialGraph(60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Interval effectively never fires; only the pending bound can trigger.
	rec, err := NewRecommender(g, WithSeed(2),
		WithRebuildInterval(time.Hour), WithMaxPendingDeltas(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u == v {
			continue
		}
		err := rec.AddEdge(u, v)
		if err != nil && !errors.Is(err, ErrDuplicateEdge) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.SnapshotVersion() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending-delta bound never triggered a rebuild")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWritesDuringRebuildDoNotTriggerAnother pins the pending-delta
// bound's kick: a write that lands while a rebuild still holds its batch
// sees the bound reached and kicks, but once that batch is swapped in the
// one delta left is below the bound, so the loop must not rebuild again.
func TestWritesDuringRebuildDoNotTriggerAnother(t *testing.T) {
	defer fault.Reset()
	rec, err := NewRecommender(ringGraph(64), WithRebuildInterval(time.Hour), WithMaxPendingDeltas(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// Hold each rebuild open long enough for a write to land inside it.
	fault.Arm("live.rebuild", fault.Config{Mode: fault.Latency, Delay: 50 * time.Millisecond})
	for v := 2; v < 6; v++ {
		if err := rec.AddEdge(0, v*2); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the kicked rebuild to start", func() bool { return fault.Fired("live.rebuild") > 0 })
	if err := rec.AddEdge(1, 33); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the kicked rebuild to swap", func() bool { return rec.SnapshotVersion() == 1 })
	// Once the loop has taken the second kick, its response to it is all
	// that stands between it and the stop signal, which Close waits out.
	waitFor(t, "the loop to take the second kick", func() bool { return len(rec.live.kick) == 0 })
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if v, p := rec.SnapshotVersion(), rec.PendingDeltas(); v != 1 || p != 1 {
		t.Fatalf("after a write during a rebuild: version %d, %d pending; want 1 and 1", v, p)
	}
}

// TestLiveHammer is the acceptance test: N writer goroutines mutate the
// graph while M readers serve Recommend/RecommendTopK under -race. Every
// read must succeed against some consistent snapshot, and after quiescence
// plus a final Rebuild the live Recommender must answer bit-identically to
// a fresh Recommender built from the final graph.
func TestLiveHammer(t *testing.T) {
	const (
		n0      = 150
		writers = 4
		readers = 4
		opsPerW = 300
	)
	g, err := GenerateSocialGraph(n0, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithSeed(11),
		WithRebuildInterval(2*time.Millisecond),
		WithMaxPendingDeltas(32),
		// Delta-aware retention runs under the full concurrent hammer; the
		// final bit-identity sweep below would catch any stale carried entry.
		WithCache(512))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	var ww, wr sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerW; i++ {
				if i%97 == 0 {
					if _, err := rec.AddNode(); err != nil {
						t.Errorf("AddNode: %v", err)
						return
					}
					continue
				}
				u, v := rng.Intn(n0), rng.Intn(n0)
				if u == v {
					continue
				}
				switch err := rec.AddEdge(u, v); {
				case err == nil:
				case errors.Is(err, ErrDuplicateEdge):
					// Toggle it off; another writer may have raced us there.
					if err := rec.RemoveEdge(u, v); err != nil && !errors.Is(err, ErrMissingEdge) {
						t.Errorf("RemoveEdge(%d,%d): %v", u, v, err)
						return
					}
				default:
					t.Errorf("AddEdge(%d,%d): %v", u, v, err)
					return
				}
			}
		}(int64(100 + w))
	}
	for m := 0; m < readers; m++ {
		wr.Add(1)
		go func(seed int64) {
			defer wr.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				target := rng.Intn(n0)
				if _, err := rec.Recommend(target); err != nil && !errors.Is(err, ErrNoCandidates) {
					t.Errorf("Recommend(%d): %v", target, err)
					return
				}
				if _, err := rec.RecommendTopK(target, 3); err != nil &&
					!errors.Is(err, ErrNoCandidates) && !strings.Contains(err.Error(), "outside [1,") {
					t.Errorf("RecommendTopK(%d): %v", target, err)
					return
				}
			}
		}(int64(900 + m))
	}
	ww.Wait()
	close(stop)
	wr.Wait()
	if t.Failed() {
		return
	}

	// Quiescence: fold everything and compare against a fresh build.
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	final, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Validate(); err != nil {
		t.Fatalf("final graph invariant: %v", err)
	}
	fresh, err := NewRecommender(final, WithSeed(11), WithCache(512))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sensitivity() != fresh.Sensitivity() {
		t.Fatalf("sensitivity diverged: live %g vs fresh %g", rec.Sensitivity(), fresh.Sensitivity())
	}
	for target := 0; target < final.NumNodes(); target++ {
		a, errA := rec.Recommend(target)
		b, errB := fresh.Recommend(target)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("target %d: live err %v vs fresh err %v", target, errA, errB)
		}
		if a != b {
			t.Fatalf("target %d: live %+v vs fresh %+v", target, a, b)
		}
		ak, errAK := rec.RecommendTopK(target, 2)
		bk, errBK := fresh.RecommendTopK(target, 2)
		if (errAK == nil) != (errBK == nil) {
			t.Fatalf("target %d topk: live err %v vs fresh err %v", target, errAK, errBK)
		}
		for i := range ak {
			if ak[i] != bk[i] {
				t.Fatalf("target %d topk[%d]: live %+v vs fresh %+v", target, i, ak[i], bk[i])
			}
		}
	}
}
