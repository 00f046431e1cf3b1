package graph

import (
	"fmt"
	"slices"
)

// Relabel returns a new graph in which node v of g becomes node perm[v].
// perm must be a permutation of 0..NumNodes-1; otherwise an error is
// returned. Relabel realizes the isomorphism h of the exchangeability axiom
// (Axiom 1): utility functions defined purely on graph structure must assign
// u_{h(i)} on Relabel(g, h) equal to u_i on g whenever h fixes the target.
func (g *Graph) Relabel(perm []int) (*Graph, error) {
	n := len(g.out)
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != %d nodes", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("graph: permutation value %d out of range", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("graph: permutation value %d repeated", p)
		}
		seen[p] = true
	}
	h := &Graph{directed: g.directed, m: g.m, out: relabelRows(g.out, perm)}
	if g.directed {
		h.in = relabelRows(g.in, perm)
	}
	return h, nil
}

// relabelRows maps every row entry and row position through perm and
// re-sorts each row.
func relabelRows(rows [][]int32, perm []int) [][]int32 {
	out := make([][]int32, len(rows))
	for v, row := range rows {
		r := make([]int32, len(row))
		for i, u := range row {
			r[i] = int32(perm[u])
		}
		slices.Sort(r)
		out[perm[v]] = r
	}
	return out
}
