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

// Graph is a mutable simple graph. The zero value is an empty undirected
// graph with no nodes; construct with New or NewDirected.
type Graph struct {
	directed bool
	out      []map[int]struct{}
	in       []map[int]struct{} // nil for undirected graphs
	m        int
}

// New returns an undirected graph with n isolated nodes.
func New(n int) *Graph {
	g := &Graph{out: make([]map[int]struct{}, n)}
	for i := range g.out {
		g.out[i] = make(map[int]struct{})
	}
	return g
}

// NewDirected returns a directed graph with n isolated nodes.
func NewDirected(n int) *Graph {
	g := New(n)
	g.directed = true
	g.in = make([]map[int]struct{}, n)
	for i := range g.in {
		g.in[i] = make(map[int]struct{})
	}
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges (each undirected edge counts once).
func (g *Graph) NumEdges() int { return g.m }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() int {
	g.out = append(g.out, make(map[int]struct{}))
	if g.directed {
		g.in = append(g.in, make(map[int]struct{}))
	}
	return len(g.out) - 1
}

func (g *Graph) checkNode(v int) error {
	if v < 0 || v >= len(g.out) {
		return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeRange, v, len(g.out))
	}
	return nil
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
	if _, dup := g.out[u][v]; dup {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	g.out[u][v] = struct{}{}
	if g.directed {
		g.in[v][u] = struct{}{}
	} else {
		g.out[v][u] = struct{}{}
	}
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
	if _, ok := g.out[u][v]; !ok {
		return fmt.Errorf("%w: (%d,%d)", ErrMissingEdge, u, v)
	}
	delete(g.out[u], v)
	if g.directed {
		delete(g.in[v], u)
	} else {
		delete(g.out[v], u)
	}
	g.m--
	return nil
}

// HasEdge reports whether the edge u->v (or {u,v}) is present. Out-of-range
// nodes report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return false
	}
	_, ok := g.out[u][v]
	return ok
}

// OutDegree returns the out-degree of v (its degree when undirected).
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the in-degree of v (its degree when undirected).
func (g *Graph) InDegree(v int) int {
	if g.directed {
		return len(g.in[v])
	}
	return len(g.out[v])
}

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

// OutNeighbors returns the out-neighbors of v in ascending order. The slice
// is freshly allocated each call.
func (g *Graph) OutNeighbors(v int) []int {
	ns := make([]int, 0, len(g.out[v]))
	for u := range g.out[v] {
		ns = append(ns, u)
	}
	slices.Sort(ns)
	return ns
}

// InNeighbors returns the in-neighbors of v in ascending order.
func (g *Graph) InNeighbors(v int) []int {
	src := g.out[v]
	if g.directed {
		src = g.in[v]
	}
	ns := make([]int, 0, len(src))
	for u := range src {
		ns = append(ns, u)
	}
	slices.Sort(ns)
	return ns
}

// Neighbors is OutNeighbors; named for readability on undirected graphs.
func (g *Graph) Neighbors(v int) []int { return g.OutNeighbors(v) }

// ForEachOutNeighbor calls fn for every out-neighbor of v in unspecified
// order, avoiding the allocation of OutNeighbors on hot paths.
func (g *Graph) ForEachOutNeighbor(v int, fn func(u int)) {
	for u := range g.out[v] {
		fn(u)
	}
}

// ForEachInNeighbor calls fn for every in-neighbor of v in unspecified order.
func (g *Graph) ForEachInNeighbor(v int, fn func(u int)) {
	src := g.out[v]
	if g.directed {
		src = g.in[v]
	}
	for u := range src {
		fn(u)
	}
}

// Edges returns every edge, ordered by (From, To). Undirected edges appear
// once with From < To.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.out {
		for v := range g.out[u] {
			if !g.directed && v < u {
				continue
			}
			es = append(es, Edge{From: u, To: v})
		}
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{directed: g.directed, m: g.m, out: make([]map[int]struct{}, len(g.out))}
	for v, ns := range g.out {
		c.out[v] = make(map[int]struct{}, len(ns))
		for u := range ns {
			c.out[v][u] = struct{}{}
		}
	}
	if g.directed {
		c.in = make([]map[int]struct{}, len(g.in))
		for v, ns := range g.in {
			c.in[v] = make(map[int]struct{}, len(ns))
			for u := range ns {
				c.in[v][u] = struct{}{}
			}
		}
	}
	return c
}

// Equal reports whether g and h have identical node counts, directedness,
// and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.directed != h.directed || len(g.out) != len(h.out) || g.m != h.m {
		return false
	}
	for v, ns := range g.out {
		if len(ns) != len(h.out[v]) {
			return false
		}
		for u := range ns {
			if _, ok := h.out[v][u]; !ok {
				return false
			}
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

// Validate checks internal consistency: symmetric adjacency for undirected
// graphs, matching in/out mirrors for directed graphs, no self loops, and an
// edge count that matches the adjacency structure. It returns the first
// inconsistency found, or nil. It is used by property-based tests as the
// global graph invariant.
func (g *Graph) Validate() error {
	count := 0
	for v, ns := range g.out {
		for u := range ns {
			if u == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if u < 0 || u >= len(g.out) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if g.directed {
				if _, ok := g.in[u][v]; !ok {
					return fmt.Errorf("graph: out edge (%d,%d) missing in-mirror", v, u)
				}
			} else {
				if _, ok := g.out[u][v]; !ok {
					return fmt.Errorf("graph: undirected edge (%d,%d) not symmetric", v, u)
				}
			}
			count++
		}
	}
	if g.directed {
		inCount := 0
		for v, ns := range g.in {
			for u := range ns {
				if _, ok := g.out[u][v]; !ok {
					return fmt.Errorf("graph: in edge (%d,%d) missing out-mirror", u, v)
				}
				inCount++
			}
		}
		if inCount != count {
			return fmt.Errorf("graph: in/out edge counts differ (%d vs %d)", inCount, count)
		}
	}
	if !g.directed {
		if count%2 != 0 {
			return fmt.Errorf("graph: odd half-edge count %d in undirected graph", count)
		}
		count /= 2
	}
	if count != g.m {
		return fmt.Errorf("graph: cached edge count %d but adjacency holds %d", g.m, count)
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
