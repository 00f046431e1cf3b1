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
