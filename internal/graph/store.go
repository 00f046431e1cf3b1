package graph

// Store is the read-only snapshot interface every layer above the graph
// package serves from. It is the narrow contract between the storage layer
// and the recommendation engine: degree and neighbor-span queries (the
// utility kernels walk the Out spans directly) and an incremental Patch
// producing the next heap snapshot from a delta log.
//
// Two interchangeable backends implement it: the heap-resident *CSR built
// by Graph.Snapshot or decoded from a snapshot file, and the zero-copy
// *Mapped store serving straight out of a memory-mapped .srsnap file (see
// snapshot.go for the format). Both expose bit-identical adjacency, so a
// Recommender's output distribution — and therefore its ε-DP guarantee —
// does not depend on which backend is plugged in; only representation
// changes, never the mechanism.
//
// The interface is sealed (note the unexported sections method): backends
// live in this package so the codec can rely on the raw section layout.
type Store interface {
	// NumNodes returns the number of nodes in the snapshot.
	NumNodes() int
	// NumEdges returns the number of graph edges (each undirected edge
	// counted once).
	NumEdges() int
	// Directed reports whether the snapshot came from a directed graph.
	Directed() bool
	// Out returns the sorted out-neighbors of v as a shared span; callers
	// must not modify it.
	Out(v int) []int32
	// In returns the sorted in-neighbors of v (Out for undirected
	// snapshots); callers must not modify it.
	In(v int) []int32
	// OutDegree returns the out-degree of v.
	OutDegree(v int) int
	// InDegree returns the in-degree of v.
	InDegree(v int) int
	// MaxDegree returns the maximum total degree over all nodes.
	MaxDegree() int
	// HasEdge reports whether u->v is present.
	HasEdge(u, v int) bool
	// ForEachOutNeighbor calls fn for every out-neighbor of v in ascending
	// order.
	ForEachOutNeighbor(v int, fn func(u int))
	// Patch returns a heap CSR equal to the snapshot with the delta batch
	// applied; untouched rows are copied out of the backing store, so the
	// result never aliases a memory mapping and stays valid after the
	// source store is closed.
	Patch(deltas []Delta) *CSR

	// sections exposes the raw CSR arrays to the snapshot codec.
	sections() storeSections
}

// storeSections is the raw columnar layout shared by every backend: the
// out-adjacency (Index/Adj) and, for directed snapshots, the mirrored
// in-adjacency.
type storeSections struct {
	index, adj     []int32
	inIndex, inAdj []int32
	directed       bool
}

// Compile-time backend checks.
var (
	_ Store = (*CSR)(nil)
	_ Store = (*Mapped)(nil)
)

// NumEdges returns the number of graph edges in the snapshot (each
// undirected edge counted once).
func (c *CSR) NumEdges() int {
	if c.directed {
		return len(c.Adj)
	}
	return len(c.Adj) / 2
}

func (c *CSR) sections() storeSections {
	return storeSections{index: c.Index, adj: c.Adj, inIndex: c.inIndex, inAdj: c.inAdj, directed: c.directed}
}

// FromStore materializes a mutable Graph with the same nodes, edges, and
// directedness as the snapshot by copying its rows. It is how a live
// Recommender hands out a copy of its current graph (the serving snapshot
// patched with the pending log). The error path only triggers on a
// corrupted store whose adjacency violates the graph invariants (self
// loops, duplicate or unordered entries, unmirrored arcs); see
// Graph.Validate.
func FromStore(s Store) (*Graph, error) {
	n := s.NumNodes()
	g := &Graph{directed: s.Directed(), out: storeRows(s.Out, n), m: s.NumEdges()}
	if g.directed {
		g.in = storeRows(s.In, n)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// storeRows copies the n rows row(0..n-1) of a store into a Graph's rows.
func storeRows(row func(v int) []int32, n int) [][]int32 {
	rows := make([][]int32, n)
	for v := range rows {
		rows[v] = row(v)
	}
	return cloneRows(rows)
}
