package socialrec

import (
	"errors"
	"path/filepath"
	"testing"

	"socialrec/internal/fault"
	"socialrec/internal/graph"
)

// writeTestSnapshot generates a synthetic graph and persists it as a
// .srsnap file, returning both.
func writeTestSnapshot(t *testing.T, directed bool) (*Graph, string) {
	t.Helper()
	var (
		g   *Graph
		err error
	)
	if directed {
		g, err = GenerateFollowerGraph(250, 1200, 7)
	} else {
		g, err = GenerateSocialGraph(250, 1200, 7)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.srsnap")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// TestSnapshotBackendsBitIdentical is the storage-layer DP-safety property:
// the same graph served from memory, from its .srsnap file through the
// memory mapping, and from that file through the heap fallback (the
// graph.mmap failpoint makes the mapping fail) must yield bit-identical
// Recommend, RecommendTopK, and ExpectedAccuracy outputs for fixed seeds,
// proving the store changes representation only, never the mechanism's
// output distribution.
func TestSnapshotBackendsBitIdentical(t *testing.T) {
	defer fault.Reset()
	for _, directed := range []bool{false, true} {
		for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing} {
			g, path := writeTestSnapshot(t, directed)
			probe, err := graph.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			platformMaps := probe.Mapped()
			probe.Close()

			opts := []Option{WithSeed(42), WithEpsilon(1), WithMechanism(kind)}
			fromFile := func() *Recommender {
				t.Helper()
				r, err := NewRecommender(nil, append(opts, WithSnapshotFile(path))...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				return r
			}
			fromGraph, err := NewRecommender(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			fromMmap := fromFile()
			fault.Arm("graph.mmap", fault.Config{Mode: fault.Error})
			fromHeap := fromFile()
			fault.Disarm("graph.mmap")
			if fromMmap.ownedSnap.Mapped() != platformMaps {
				t.Fatalf("WithSnapshotFile mapped=%v, graph.OpenMapped mapped=%v", fromMmap.ownedSnap.Mapped(), platformMaps)
			}
			if fromHeap.ownedSnap.Mapped() {
				t.Fatal("graph.mmap failpoint armed, yet the file is served mapped")
			}

			for target := 0; target < g.NumNodes(); target += 7 {
				recG, errG := fromGraph.Recommend(target)
				recH, errH := fromHeap.Recommend(target)
				recM, errM := fromMmap.Recommend(target)
				if (errG == nil) != (errH == nil) || (errG == nil) != (errM == nil) {
					t.Fatalf("directed=%v kind=%v target %d: error mismatch: %v / %v / %v", directed, kind, target, errG, errH, errM)
				}
				if errG != nil {
					continue
				}
				if recG != recH || recG != recM {
					t.Fatalf("directed=%v kind=%v target %d: Recommend diverged: %+v / %+v / %+v", directed, kind, target, recG, recH, recM)
				}

				topG, errG := fromGraph.RecommendTopK(target, 3)
				topH, errH := fromHeap.RecommendTopK(target, 3)
				topM, errM := fromMmap.RecommendTopK(target, 3)
				if (errG == nil) != (errH == nil) || (errG == nil) != (errM == nil) {
					t.Fatalf("directed=%v kind=%v target %d: top-k error mismatch", directed, kind, target)
				}
				if errG == nil {
					for i := range topG {
						if topG[i] != topH[i] || topG[i] != topM[i] {
							t.Fatalf("directed=%v kind=%v target %d: RecommendTopK diverged at %d", directed, kind, target, i)
						}
					}
				}

				accG, errG := fromGraph.ExpectedAccuracy(target)
				accH, errH := fromHeap.ExpectedAccuracy(target)
				accM, errM := fromMmap.ExpectedAccuracy(target)
				if (errG == nil) != (errH == nil) || (errG == nil) != (errM == nil) {
					t.Fatalf("directed=%v kind=%v target %d: accuracy error mismatch", directed, kind, target)
				}
				if errG == nil && (accG != accH || accG != accM) {
					t.Fatalf("directed=%v kind=%v target %d: ExpectedAccuracy diverged: %v / %v / %v", directed, kind, target, accG, accH, accM)
				}
			}
		}
	}
}

func TestWithSnapshotFileOwnership(t *testing.T) {
	_, path := writeTestSnapshot(t, false)

	r, err := NewRecommender(nil, WithSnapshotFile(path), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recommend(0); err != nil && !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("Recommend from snapshot-backed recommender: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Guard rails: nil graph without the option, and both at once.
	if _, err := NewRecommender(nil); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph without WithSnapshotFile: got %v, want ErrNilGraph", err)
	}
	g := NewGraph(3)
	if _, err := NewRecommender(g, WithSnapshotFile(path)); err == nil {
		t.Error("non-nil graph plus WithSnapshotFile should be rejected")
	}
	if _, err := NewRecommender(nil, WithSnapshotFile(filepath.Join(t.TempDir(), "missing.srsnap"))); err == nil {
		t.Error("missing snapshot file should fail construction")
	}
}

// TestLiveRebuildPersistsSnapshot exercises the rebuilder's atomic
// persistence: after mutations are folded in, the persisted file reopens to
// exactly the mutated graph, so a restart resumes from the newest state.
func TestLiveRebuildPersistsSnapshot(t *testing.T) {
	_, path := writeTestSnapshot(t, false)
	persistPath := filepath.Join(t.TempDir(), "persisted.srsnap")

	r, err := NewRecommender(nil,
		WithSnapshotFile(path),
		WithLiveMutations(),
		WithSnapshotPersist(persistPath),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	added := false
	for v := 1; v < 40 && !added; v++ {
		if err := r.AddEdge(0, v); err == nil {
			added = true
		} else if !errors.Is(err, ErrDuplicateEdge) {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if !added {
		t.Fatal("could not add any edge from node 0")
	}
	if err := r.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	stats, ok := r.LiveStats()
	if !ok || stats.SnapshotsPersisted == 0 {
		t.Fatalf("expected a persisted snapshot, stats=%+v ok=%v", stats, ok)
	}
	if stats.PersistErrors != 0 {
		t.Fatalf("persist errors: %+v", stats)
	}

	want, err := r.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := graph.ReadSnapshotFile(persistPath)
	if err != nil {
		t.Fatalf("reopening persisted snapshot: %v", err)
	}
	got, err := graph.FromStore(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("persisted snapshot differs from the live graph")
	}
}

// TestFromStoreMatchesSnapshot pins graph.FromStore, which materializes a
// live Recommender's CurrentGraph, against the source graph, over both
// stores that serve the file, for both directednesses.
func TestFromStoreMatchesSnapshot(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g, path := writeTestSnapshot(t, directed)
		heap, err := graph.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := graph.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		for name, st := range map[string]graph.Store{"heap": heap, "mapped": mapped} {
			back, err := graph.FromStore(st)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(g) {
				t.Fatalf("directed=%v: FromStore(%s) differs from source graph", directed, name)
			}
		}
	}
}
