package socialrec

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"socialrec/internal/fault"
)

func newWALRecommender(t *testing.T, g *Graph, walDir string, extra ...Option) *Recommender {
	t.Helper()
	opts := append([]Option{
		WithSeed(7),
		WithWAL(walDir),
		WithWALSync(FsyncOff),          // tests exercise process-crash recovery, not power loss
		WithRebuildInterval(time.Hour), // rebuilds only when the test asks
	}, extra...)
	rec, err := NewRecommender(g, opts...)
	if err != nil {
		t.Fatalf("NewRecommender: %v", err)
	}
	return rec
}

func TestWALReplayRestoresAcknowledgedMutations(t *testing.T) {
	walDir := t.TempDir()
	rec := newWALRecommender(t, NewGraph(6), walDir)
	mustAdd := func(u, v int) {
		t.Helper()
		if err := rec.AddEdge(u, v); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
		}
	}
	mustAdd(0, 1)
	mustAdd(1, 2)
	mustAdd(0, 2)
	if _, err := rec.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	mustAdd(6, 0)
	if err := rec.RemoveEdge(0, 2); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	want, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate kill -9: no Rebuild, no Close — the serving snapshot never
	// saw these mutations, only the WAL did.
	rec2 := newWALRecommender(t, NewGraph(6), walDir)
	defer rec2.Close()
	got, err := rec2.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("recovered graph differs from the acknowledged pre-crash graph")
	}
	// The replayed mutations must be serving state, not just mutable state.
	if got := rec2.PendingDeltas(); got != 0 {
		t.Fatalf("PendingDeltas after recovery = %d, want 0 (replay lands in the initial snapshot)", got)
	}
	rec.Close()
}

func TestWALReplayIsIdempotentOverPersistedSnapshot(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "g.srsnap")

	rec := newWALRecommender(t, NewGraph(5), walDir, WithSnapshotPersist(snapPath))
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := rec.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Persist a snapshot covering the first three mutations (this also
	// truncates coverable WAL segments), then mutate past it.
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := rec.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	want, _ := rec.CurrentGraph()

	// Crash-restart from the persisted snapshot + surviving WAL. Any
	// records the snapshot already covers replay as no-ops.
	rec2, err := NewRecommender(nil,
		WithSeed(7),
		WithSnapshotFile(snapPath),
		WithWAL(walDir),
		WithWALSync(FsyncOff),
		WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer rec2.Close()
	got, err := rec2.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("snapshot+WAL recovery diverged from the acknowledged graph")
	}
	rec.Close()
}

func TestWALAppendFailureVetoesMutation(t *testing.T) {
	defer fault.Reset()
	rec := newWALRecommender(t, NewGraph(4), t.TempDir())
	defer rec.Close()

	fault.Arm("wal.append", fault.Config{Mode: fault.Error, Count: 1})
	if err := rec.AddEdge(0, 1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AddEdge under WAL failure = %v, want injected error", err)
	}
	// The mutation was rolled back — not in the graph, not pending.
	g, _ := rec.CurrentGraph()
	if g.HasEdge(0, 1) {
		t.Fatal("vetoed edge is present in the graph")
	}
	if rec.PendingDeltas() != 0 {
		t.Fatal("vetoed mutation left a pending delta")
	}
	if deg := rec.Degraded(); deg[subsystemWAL] == "" {
		t.Fatalf("Degraded = %v, want wal entry", deg)
	}
	// Recovery: the next append succeeds and clears the degraded flag.
	if err := rec.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge after WAL recovery: %v", err)
	}
	if deg := rec.Degraded(); deg != nil {
		t.Fatalf("Degraded after recovery = %v, want none", deg)
	}
}

func TestPersistFailureDegradesButServingContinues(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	g := ringGraph(24)
	rec := newWALRecommender(t, g, filepath.Join(dir, "wal"),
		WithSnapshotPersist(filepath.Join(dir, "g.srsnap")))
	defer rec.Close()

	// Every persist attempt (including retries) fails.
	fault.Arm("snapshot.persist", fault.Config{Mode: fault.Error})
	if err := rec.AddEdge(0, 12); err != nil {
		t.Fatal(err)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatalf("Rebuild must succeed even when persistence fails: %v", err)
	}
	if deg := rec.Degraded(); deg[subsystemPersist] == "" {
		t.Fatalf("Degraded = %v, want snapshot-persist entry", deg)
	}
	stats, _ := rec.LiveStats()
	if stats.PersistErrors == 0 {
		t.Fatal("PersistErrors not incremented")
	}
	// Serving from the swapped-in snapshot still works.
	if _, err := rec.Recommend(3); err != nil {
		t.Fatalf("Recommend while degraded: %v", err)
	}
	// Disk recovers: next rebuild persists and clears the flag.
	fault.Reset()
	if err := rec.AddEdge(1, 13); err != nil {
		t.Fatal(err)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if deg := rec.Degraded(); deg != nil {
		t.Fatalf("Degraded after disk recovery = %v, want none", deg)
	}
}

// TestRebuildFailureDegradesAndRetriesBatch pins a failed rebuild: the
// Recommender reports degraded and keeps serving, the failed batch stays
// pending, and the next Rebuild installs it together with newer deltas.
func TestRebuildFailureDegradesAndRetriesBatch(t *testing.T) {
	defer fault.Reset()
	rec := newWALRecommender(t, ringGraph(16), t.TempDir())
	defer rec.Close()

	if err := rec.AddEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	// All rebuild attempts (including retries) fail.
	fault.Arm("live.rebuild", fault.Config{Mode: fault.Error})
	if err := rec.Rebuild(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Rebuild = %v, want injected error", err)
	}
	if deg := rec.Degraded(); deg[subsystemRebuild] == "" {
		t.Fatalf("Degraded = %v, want rebuild entry", deg)
	}
	// The failed batch is in no served snapshot, so it is still pending.
	if got := rec.PendingDeltas(); got != 1 {
		t.Fatalf("PendingDeltas after failed Rebuild = %d, want 1", got)
	}
	// The last good snapshot keeps serving.
	if _, err := rec.Recommend(3); err != nil {
		t.Fatalf("Recommend while rebuild-degraded: %v", err)
	}
	fault.Reset()
	if err := rec.AddEdge(1, 9); err != nil {
		t.Fatal(err)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatalf("Rebuild after recovery: %v", err)
	}
	if deg := rec.Degraded(); deg != nil {
		t.Fatalf("Degraded after recovery = %v, want none", deg)
	}
	// The retried batch must include both the failed delta and the new
	// one.
	want, _ := rec.CurrentGraph()
	if !want.HasEdge(0, 8) || !want.HasEdge(1, 9) {
		t.Fatal("recovered snapshot lost mutations")
	}
	if rec.PendingDeltas() != 0 {
		t.Fatal("deltas still pending after successful rebuild")
	}
}

// TestFailedRebuildRetriedWithoutNewWrites pins the retry of a failed
// rebuild with no further writes: its batch stays pending, and the next
// Rebuild must install it and clear the degraded flag.
func TestFailedRebuildRetriedWithoutNewWrites(t *testing.T) {
	defer fault.Reset()
	rec := newWALRecommender(t, ringGraph(16), t.TempDir())
	defer rec.Close()

	if err := rec.AddEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	fault.Arm("live.rebuild", fault.Config{Mode: fault.Error})
	if err := rec.Rebuild(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Rebuild = %v, want injected error", err)
	}
	if rec.PendingDeltas() != 1 {
		t.Fatalf("failed rebuild left %d deltas pending, want its batch of 1", rec.PendingDeltas())
	}
	fault.Reset()
	if err := rec.Rebuild(); err != nil {
		t.Fatalf("retry Rebuild: %v", err)
	}
	if v := rec.SnapshotVersion(); v != 1 {
		t.Fatalf("SnapshotVersion after retry = %d, want 1", v)
	}
	if deg := rec.Degraded(); deg != nil {
		t.Fatalf("Degraded after retry = %v, want none", deg)
	}
	if !rec.state.Load().snap.HasEdge(0, 8) {
		t.Fatal("served snapshot lacks the acknowledged edge")
	}
}

// TestRebuildLoopRetriesFailedRebuild is the background-loop form: once the
// fault clears, the loop must retry on its own, with no further write to
// make anything pending.
func TestRebuildLoopRetriesFailedRebuild(t *testing.T) {
	defer fault.Reset()
	rec := newWALRecommender(t, ringGraph(16), t.TempDir(), WithRebuildInterval(2*time.Millisecond))
	defer rec.Close()

	fault.Arm("live.rebuild", fault.Config{Mode: fault.Error})
	if err := rec.AddEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a failed rebuild", func() bool {
		return rec.PendingDeltas() == 1 && rec.Degraded()[subsystemRebuild] != ""
	})
	fault.Reset()
	waitFor(t, "the loop to retry", func() bool {
		return rec.SnapshotVersion() >= 1 && rec.Degraded() == nil
	})
	if !rec.state.Load().snap.HasEdge(0, 8) {
		t.Fatal("served snapshot lacks the acknowledged edge")
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALTruncatesAfterDurablePersist(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	rec := newWALRecommender(t, NewGraph(64), walDir,
		WithSnapshotPersist(filepath.Join(dir, "g.srsnap")))
	defer rec.Close()

	// Enough mutations to roll several tiny segments is overkill here;
	// instead just verify the covered mark reaches the log head and
	// recovery replays nothing.
	for i := 0; i < 63; i++ {
		if err := rec.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	stats, _ := rec.LiveStats()
	if stats.WAL == nil {
		t.Fatal("LiveStats.WAL is nil with WithWAL configured")
	}
	if stats.WAL.CoveredLSN != stats.WAL.LastLSN || stats.WAL.LastLSN != 63 {
		t.Fatalf("covered=%d last=%d, want 63/63", stats.WAL.CoveredLSN, stats.WAL.LastLSN)
	}
}

func TestWithWALSyncRequiresWithWAL(t *testing.T) {
	_, err := NewRecommender(NewGraph(4), WithWALSync(FsyncAlways))
	if err == nil {
		t.Fatal("WithWALSync without WithWAL accepted")
	}
}

func TestParseFsyncMode(t *testing.T) {
	cases := map[string]FsyncMode{
		"always": FsyncAlways, "": FsyncAlways,
		"interval": FsyncInterval,
		"off":      FsyncOff, "none": FsyncOff,
		" Always ": FsyncAlways,
	}
	for in, want := range cases {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncMode("fsync-maybe"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// ringGraph builds a cycle over n nodes, giving every target common
// neighbors so Recommend always has candidates.
func ringGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return g
}

func TestMain(m *testing.M) {
	code := m.Run()
	fault.Reset()
	os.Exit(code)
}
