package graph_test

import (
	"runtime"
	"testing"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
)

// TestGraphBytesPerArc measures the live heap a generated WikiVoteLike
// graph holds (7,115 nodes, ~100k edges, two stored row entries per edge)
// and bounds it at 8 B per stored entry: a 4 B int32 per entry, the
// append slack of rows grown one insert at a time, and one slice header
// per row. A map per node costs about 35 B per entry.
func TestGraphBytesPerArc(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under -race")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := gen.WikiVoteLike(distribution.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	arcs := 2 * g.NumEdges()
	perArc := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(arcs)
	runtime.KeepAlive(g)
	t.Logf("%d nodes, %d stored entries: %.2f B per entry", g.NumNodes(), arcs, perArc)
	if perArc > 8 {
		t.Fatalf("graph holds %.2f B per stored entry, want at most 8", perArc)
	}
}
