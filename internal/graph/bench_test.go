package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % 9999
		v := u + 1
		if g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(i%10000, (i*7)%10000)
	}
}

func BenchmarkCommonNeighborsFrom(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CommonNeighborsFrom(i % 5000)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snapshot()
	}
}

// hubBatch builds an n-node graph (a path over nodes 1..n-1, with node 0
// adjacent to the first half of the others) and one valid journal batch of
// about 0.9n edits to node 0's row: every other hub edge removed, every
// node of the second half added, every fourth of those removed again and
// every eighth removed edge re-added. It returns the base snapshot, the
// batch and the graph after it.
func hubBatch(tb testing.TB, n int) (*CSR, []Delta, *Graph) {
	tb.Helper()
	g := New(n)
	for v := 1; v < n; v++ {
		if err := g.AddEdge(v-1, v); err != nil {
			tb.Fatal(err)
		}
		if v > 1 && v < n/2 {
			if err := g.AddEdge(0, v); err != nil {
				tb.Fatal(err)
			}
		}
	}
	base := g.Snapshot()
	var deltas []Delta
	edit := func(add bool, v int) {
		var err error
		if add {
			err = g.AddEdge(0, v)
			deltas = append(deltas, Delta{Op: DeltaAddEdge, From: 0, To: v})
		} else {
			err = g.RemoveEdge(v, 0)
			deltas = append(deltas, Delta{Op: DeltaRemoveEdge, From: v, To: 0})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for v := 1; v < n/2; v += 2 {
		edit(false, v)
	}
	for v := n / 2; v < n; v++ {
		edit(true, v)
	}
	for v := n / 2; v < n; v += 4 {
		edit(false, v)
	}
	for v := 1; v < n/2; v += 16 {
		edit(true, v)
	}
	return base, deltas, g
}

// BenchmarkPatchHubBatch patches one batch of ~9,000 edits to a single
// hub row of ~5,000 neighbours in a 10,000-node graph.
func BenchmarkPatchHubBatch(b *testing.B) {
	base, deltas, g := hubBatch(b, 10000)
	if !base.Patch(deltas).Equal(g.Snapshot()) {
		b.Fatal("hub patch diverged from the graph")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Patch(deltas)
	}
}
