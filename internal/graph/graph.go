// Package graph implements the social-graph substrate for the private
// social recommendation library: a mutable directed or undirected simple
// graph over dense integer node IDs, with the adjacency and degree queries
// the paper's utility functions read, pairwise common-neighbor counts, the
// edge-mutation operations used by the lower-bound
// rewiring arguments (the parameter t in Lemmas 1-2), relabeling under a node
// isomorphism (the exchangeability axiom), and an immutable CSR snapshot for
// read-heavy scans.
//
// Nodes are the integers 0..N-1. Self-loops and parallel edges are rejected:
// the paper's model is a simple graph where each recommendation edge (i, r)
// and each sensitive edge (x, y) is a single link.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Errors returned by graph mutations and queries.
var (
	ErrNodeRange     = errors.New("graph: node out of range")
	ErrSelfLoop      = errors.New("graph: self loops are not allowed")
	ErrDuplicateEdge = errors.New("graph: edge already present")
	ErrMissingEdge   = errors.New("graph: edge not present")
)

// Edge is a single link. For undirected graphs the orientation is
// normalized so From <= To when enumerated.
type Edge struct {
	From, To int
}

// Graph is a mutable simple graph. Each node's adjacency is one strictly
// ascending []int32 row (out, plus the mirrored in rows of a directed
// graph), so neighbor scans read in order without sorting, membership is a
// binary search, and Snapshot copies rows instead of gathering and sorting
// them. The zero value is an empty undirected graph with no nodes;
// construct with New or NewDirected.
type Graph struct {
	directed bool
	out      [][]int32
	in       [][]int32 // nil for undirected graphs
	m        int
}

// New returns an undirected graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{out: make([][]int32, n)}
}

// NewDirected returns a directed graph with n isolated nodes.
func NewDirected(n int) *Graph {
	return &Graph{directed: true, out: make([][]int32, n), in: make([][]int32, n)}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges (each undirected edge counts once).
func (g *Graph) NumEdges() int { return g.m }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() int {
	g.out = append(g.out, nil)
	if g.directed {
		g.in = append(g.in, nil)
	}
	return len(g.out) - 1
}

func (g *Graph) checkNode(v int) error {
	if v < 0 || v >= len(g.out) {
		return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeRange, v, len(g.out))
	}
	return nil
}

// mirror returns the rows holding each edge's reverse entry: the in rows
// of a directed graph, the out rows themselves of an undirected one.
func (g *Graph) mirror() [][]int32 {
	if g.directed {
		return g.in
	}
	return g.out
}

// insertSorted inserts x, known absent, into the ascending row.
func insertSorted(row []int32, x int32) []int32 {
	i, _ := slices.BinarySearch(row, x)
	return slices.Insert(row, i, x)
}

// removeSorted deletes x, known present, from the ascending row.
func removeSorted(row []int32, x int32) []int32 {
	i, _ := slices.BinarySearch(row, x)
	return slices.Delete(row, i, i+1)
}

// AddEdge inserts the edge u->v (or {u,v} when undirected). It returns
// ErrSelfLoop, ErrNodeRange, or ErrDuplicateEdge on invalid input.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return ErrSelfLoop
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	g.out[u] = insertSorted(g.out[u], int32(v))
	mirror := g.mirror()
	mirror[v] = insertSorted(mirror[v], int32(u))
	g.m++
	return nil
}

// RemoveEdge deletes the edge u->v (or {u,v}); ErrMissingEdge if absent.
func (g *Graph) RemoveEdge(u, v int) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	if !g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrMissingEdge, u, v)
	}
	g.out[u] = removeSorted(g.out[u], int32(v))
	mirror := g.mirror()
	mirror[v] = removeSorted(mirror[v], int32(u))
	g.m--
	return nil
}

// HasEdge reports whether the edge u->v (or {u,v}) is present. Out-of-range
// nodes report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return false
	}
	_, ok := slices.BinarySearch(g.out[u], int32(v))
	return ok
}

// OutDegree returns the out-degree of v (its degree when undirected).
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the in-degree of v (its degree when undirected).
func (g *Graph) InDegree(v int) int { return len(g.mirror()[v]) }

// Degree returns the total degree: OutDegree for undirected graphs, and
// in+out for directed graphs.
func (g *Graph) Degree(v int) int {
	if g.directed {
		return len(g.out[v]) + len(g.in[v])
	}
	return len(g.out[v])
}

// MaxDegree returns the maximum Degree over all nodes (0 for empty graphs).
// This is the dmax that appears in Theorem 1 and the weighted-path bounds.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.out {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Out returns the out-neighbors of v in ascending order as the graph's own
// row, like CSR.Out: do not modify it; it is invalid after the next
// mutation.
func (g *Graph) Out(v int) []int32 { return g.out[v] }

// widen copies a row into a fresh []int.
func widen(row []int32) []int {
	ns := make([]int, len(row))
	for i, u := range row {
		ns[i] = int(u)
	}
	return ns
}

// OutNeighbors returns the out-neighbors of v in ascending order. The slice
// is freshly allocated each call.
func (g *Graph) OutNeighbors(v int) []int { return widen(g.out[v]) }

// InNeighbors returns the in-neighbors of v in ascending order.
func (g *Graph) InNeighbors(v int) []int { return widen(g.mirror()[v]) }

// Neighbors is OutNeighbors; named for readability on undirected graphs.
func (g *Graph) Neighbors(v int) []int { return g.OutNeighbors(v) }

// ForEachOutNeighbor calls fn for every out-neighbor of v in ascending
// order, avoiding the allocation of OutNeighbors.
func (g *Graph) ForEachOutNeighbor(v int, fn func(u int)) {
	for _, u := range g.out[v] {
		fn(int(u))
	}
}

// ForEachInNeighbor calls fn for every in-neighbor of v in ascending order.
func (g *Graph) ForEachInNeighbor(v int, fn func(u int)) {
	for _, u := range g.mirror()[v] {
		fn(int(u))
	}
}

// Edges returns every edge, ordered by (From, To). Undirected edges appear
// once with From < To.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, row := range g.out {
		for _, v := range row {
			if !g.directed && int(v) < u {
				continue
			}
			es = append(es, Edge{From: u, To: int(v)})
		}
	}
	return es
}

// cloneRows deep-copies rows into one shared backing array. Each row is
// capped at its length, so a later insert reallocates that row alone
// instead of overwriting its neighbor.
func cloneRows(rows [][]int32) [][]int32 {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(rows))
	for v, row := range rows {
		lo := len(flat)
		flat = append(flat, row...)
		out[v] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{directed: g.directed, m: g.m, out: cloneRows(g.out)}
	if g.directed {
		c.in = cloneRows(g.in)
	}
	return c
}

// Equal reports whether g and h have identical node counts, directedness,
// and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.directed != h.directed || len(g.out) != len(h.out) || g.m != h.m {
		return false
	}
	for v, row := range g.out {
		if !slices.Equal(row, h.out[v]) {
			return false
		}
	}
	return true
}

// DegreeSequence returns the (total) degree of every node.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, len(g.out))
	for v := range g.out {
		ds[v] = g.Degree(v)
	}
	return ds
}

// Validate checks internal consistency: strictly ascending rows of in-range
// neighbors with no self loops, symmetric adjacency for undirected graphs,
// matching in/out mirrors for directed graphs, and an edge count that
// matches the adjacency structure. It returns the first inconsistency
// found, or nil. It is used by property-based tests as the global graph
// invariant.
func (g *Graph) Validate() error {
	n := len(g.out)
	mirror := g.mirror()
	if len(mirror) != n {
		return fmt.Errorf("graph: %d in rows for %d nodes", len(mirror), n)
	}
	if err := validateRows(g.out); err != nil {
		return err
	}
	if g.directed {
		if err := validateRows(g.in); err != nil {
			return err
		}
	}
	// Enumerating arcs (v, u) in ascending v visits each mirror row u in
	// ascending order, so a per-row cursor that must match v exactly, and
	// must end at the row's end, pairs every arc with its mirror entry.
	cursors := make([]int, n)
	count := 0
	for v, row := range g.out {
		for _, u := range row {
			c := cursors[u]
			if c >= len(mirror[u]) || mirror[u][c] != int32(v) {
				if g.directed {
					return fmt.Errorf("graph: out edge (%d,%d) missing in-mirror", v, u)
				}
				return fmt.Errorf("graph: undirected edge (%d,%d) not symmetric", v, u)
			}
			cursors[u]++
			count++
		}
	}
	for u, row := range mirror {
		if cursors[u] != len(row) {
			return fmt.Errorf("graph: row %d holds %d entries but only %d mirrored edges", u, len(row), cursors[u])
		}
	}
	if !g.directed {
		count /= 2
	}
	if count != g.m {
		return fmt.Errorf("graph: cached edge count %d but adjacency holds %d", g.m, count)
	}
	return nil
}

// validateRows checks that every row is strictly ascending over in-range
// nodes and skips its own node.
func validateRows(rows [][]int32) error {
	for v, row := range rows {
		for i, u := range row {
			if u < 0 || int(u) >= len(rows) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: row %d not strictly ascending at %d", v, i)
			}
		}
	}
	return nil
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, n=%d, m=%d}", kind, len(g.out), g.m)
}
