package graph

import "fmt"

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
	var h *Graph
	if g.directed {
		h = NewDirected(n)
	} else {
		h = New(n)
	}
	for u := range g.out {
		for v := range g.out[u] {
			if !g.directed && perm[v] < perm[u] {
				continue // add each undirected edge once
			}
			if g.directed || !h.HasEdge(perm[u], perm[v]) {
				if err := h.AddEdge(perm[u], perm[v]); err != nil {
					return nil, err
				}
			}
		}
	}
	return h, nil
}
