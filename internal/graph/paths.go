package graph

// Neighborhood queries behind the paper's utility functions.
//
// Directed convention. Section 7.1 of the paper: "For the directed Twitter
// network, we count the common neighbors and paths by following edges out of
// target node r." We therefore count walks that follow out-edges at every
// hop: a length-2 walk r->a->i certifies a as a "common neighbor" of r and i,
// i.e. CommonNeighbors(r, i) = |out(r) ∩ in(i)|, which degenerates to the
// usual shared-neighbor count on undirected graphs. Walks rather than simple
// paths are counted, matching the Katz measure of Liben-Nowell & Kleinberg
// that the weighted-paths utility approximates; for lengths <= 3 starting at
// r the two differ only by walks revisiting r or the endpoint, and the
// counters below exclude walks that step back through r itself at the first
// hop return position, matching how the paper's t-values (§7.1) behave on the
// evaluation graphs.

// CommonNeighbors returns |out(u) ∩ in(v)|: the number of two-hop
// intermediaries from u to v following out-edges. On undirected graphs this
// is the classic common-neighbor count C(u, v).
func (g *Graph) CommonNeighbors(u, v int) int {
	a, b := g.out[u], g.mirror()[v]
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// CommonNeighborsFrom returns, for target r, the common-neighbor count from
// r to every node, in a single pass over r's two-hop out-neighborhood:
// counts[i] = number of length-2 out-walks r -> a -> i with a != i. The
// target's own slot counts[r] is forced to 0 (recommending r to itself is
// never a candidate). The result slice has length NumNodes.
func (g *Graph) CommonNeighborsFrom(r int) []int {
	counts := make([]int, len(g.out))
	for _, a := range g.out[r] {
		for _, i := range g.out[a] {
			if int(i) == r || i == a {
				continue
			}
			counts[i]++
		}
	}
	counts[r] = 0
	return counts
}

// TwoHopNeighborhood returns the set of nodes reachable from r by exactly
// two out-hops (excluding r itself), in ascending order. These are the nodes
// with non-zero common-neighbor utility: the V_hi candidates in the paper's
// lower-bound argument.
func (g *Graph) TwoHopNeighborhood(r int) []int {
	counts := g.CommonNeighborsFrom(r)
	out := make([]int, 0)
	for i, c := range counts {
		if c > 0 {
			out = append(out, i)
		}
	}
	return out
}
