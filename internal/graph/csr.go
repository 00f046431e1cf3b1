package graph

// CSR is an immutable compressed-sparse-row snapshot of a graph's
// out-adjacency: neighbors of v are Adj[Index[v]:Index[v+1]], sorted
// ascending. Utility-vector computation over hundreds of sampled targets
// scans neighborhoods far more often than it mutates edges, and the CSR
// layout keeps every row in one flat array that no mutation touches (see
// BenchmarkAblationCSR in the root benchmark suite).
type CSR struct {
	Index    []int32
	Adj      []int32
	directed bool
	// inIndex/inAdj mirror the in-adjacency for directed graphs.
	inIndex []int32
	inAdj   []int32
}

// Snapshot builds a CSR view of g by copying its rows, already ascending,
// behind their prefix sums. Subsequent mutations of g are not reflected in
// the snapshot.
func (g *Graph) Snapshot() *CSR {
	n := len(g.out)
	c := &CSR{directed: g.directed}
	c.Index, c.Adj = buildCSR(g.out, n)
	if g.directed {
		c.inIndex, c.inAdj = buildCSR(g.in, n)
	}
	return c
}

// buildCSR concatenates rows, already ascending, behind their prefix sums.
func buildCSR(rows [][]int32, n int) ([]int32, []int32) {
	index := make([]int32, n+1)
	total := 0
	for v, row := range rows {
		total += len(row)
		index[v+1] = int32(total)
	}
	flat := make([]int32, 0, total)
	for _, row := range rows {
		flat = append(flat, row...)
	}
	return index, flat
}

// NumNodes returns the number of nodes in the snapshot.
func (c *CSR) NumNodes() int { return len(c.Index) - 1 }

// Directed reports whether the snapshot came from a directed graph.
func (c *CSR) Directed() bool { return c.directed }

// Out returns the sorted out-neighbors of v as a shared slice; callers must
// not modify it.
func (c *CSR) Out(v int) []int32 { return c.Adj[c.Index[v]:c.Index[v+1]] }

// In returns the sorted in-neighbors of v (equal to Out for undirected
// snapshots); callers must not modify the returned slice.
func (c *CSR) In(v int) []int32 {
	if !c.directed {
		return c.Out(v)
	}
	return c.inAdj[c.inIndex[v]:c.inIndex[v+1]]
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v int) int { return int(c.Index[v+1] - c.Index[v]) }

// InDegree returns the in-degree of v (equal to OutDegree for undirected
// snapshots).
func (c *CSR) InDegree(v int) int {
	if !c.directed {
		return c.OutDegree(v)
	}
	return int(c.inIndex[v+1] - c.inIndex[v])
}

// MaxDegree returns the maximum total degree over all nodes (in+out for
// directed snapshots), mirroring Graph.MaxDegree.
func (c *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < c.NumNodes(); v++ {
		d := c.OutDegree(v)
		if c.directed {
			d += int(c.inIndex[v+1] - c.inIndex[v])
		}
		if d > max {
			max = d
		}
	}
	return max
}

// ForEachOutNeighbor calls fn for every out-neighbor of v in ascending order.
func (c *CSR) ForEachOutNeighbor(v int, fn func(u int)) {
	for _, u := range c.Out(v) {
		fn(int(u))
	}
}

// HasEdge reports whether u->v is present, by binary search over u's row.
func (c *CSR) HasEdge(u, v int) bool {
	row := c.Out(u)
	t := int32(v)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == t
}
