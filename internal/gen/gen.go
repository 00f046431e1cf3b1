// Package gen generates the synthetic social graphs on which the paper's
// experiments are reproduced. The paper evaluates on the SNAP Wikipedia vote
// network (7,115 nodes, 100,762 undirected edges) and a never-released
// Twitter connection sample (96,403 nodes, 489,986 directed edges, max
// degree 13,181). Neither dataset is available in this offline environment,
// so WikiVoteLike and TwitterLike build graphs with matched node/edge counts
// and heavy-tailed degree distributions; DESIGN.md records the substitution.
// The package also ships the standard random-graph models (Erdős–Rényi,
// Barabási–Albert, Watts–Strogatz, power-law configuration model) used by
// tests, ablations, and examples.
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"socialrec/internal/distribution"
	"socialrec/internal/graph"
)

// ErrParams is returned when a generator receives invalid parameters.
var ErrParams = errors.New("gen: invalid parameters")

// contains reports whether xs holds x; generator fan-outs are small (tens of
// entries), where a linear scan beats a map and keeps iteration
// deterministic.
func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// ErdosRenyiGNM returns an undirected G(n, m) graph: m distinct edges chosen
// uniformly at random among all node pairs.
func ErdosRenyiGNM(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	maxM := n * (n - 1) / 2
	if n < 0 || m < 0 || m > maxM {
		return nil, fmt.Errorf("%w: G(n=%d, m=%d) needs 0 <= m <= %d", ErrParams, n, m, maxM)
	}
	g := graph.New(n)
	for g.NumEdges() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// BarabasiAlbert returns an undirected preferential-attachment graph: start
// from a clique on m0 = m+1 nodes; each subsequent node attaches m edges to
// existing nodes chosen proportionally to their degree. The resulting degree
// distribution is the power law that makes most nodes low-degree — the
// regime where the paper's lower bounds bite hardest.
func BarabasiAlbert(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("%w: BarabasiAlbert(n=%d, m=%d) needs m >= 1 and n > m", ErrParams, n, m)
	}
	g := graph.New(n)
	// repeated holds one entry per edge endpoint; sampling uniformly from it
	// is sampling proportionally to degree.
	repeated := make([]int, 0, 2*m*n)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
			repeated = append(repeated, u, v)
		}
	}
	for v := m + 1; v < n; v++ {
		attached := make([]int, 0, m)
		for len(attached) < m {
			u := repeated[rng.Intn(len(repeated))]
			if u == v || contains(attached, u) {
				continue
			}
			attached = append(attached, u)
		}
		for _, u := range attached {
			if err := g.AddEdge(v, u); err != nil {
				return nil, err
			}
			repeated = append(repeated, v, u)
		}
	}
	return g, nil
}

// WattsStrogatz returns an undirected small-world graph: a ring lattice
// where each node connects to its k nearest neighbors (k even), with each
// edge rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 3 || k < 2 || k%2 != 0 || k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("%w: WattsStrogatz(n=%d, k=%d, beta=%g)", ErrParams, n, k, beta)
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := (v + j) % n
			if !g.HasEdge(v, u) {
				if err := g.AddEdge(v, u); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, e := range g.Edges() {
		if rng.Float64() >= beta {
			continue
		}
		// Rewire the far endpoint to a uniform random non-neighbor.
		for attempt := 0; attempt < 32; attempt++ {
			w := rng.Intn(n)
			if w == e.From || g.HasEdge(e.From, w) {
				continue
			}
			if err := g.RemoveEdge(e.From, e.To); err != nil {
				return nil, err
			}
			if err := g.AddEdge(e.From, w); err != nil {
				return nil, err
			}
			break
		}
	}
	return g, nil
}

// PowerLawConfiguration returns an undirected graph whose degree sequence is
// drawn from a Zipf law with the given exponent, scaled so that the expected
// edge count is close to targetEdges, then wired by the configuration model
// with self-loops and multi-edges dropped. minDegree floors every node's
// degree so the graph has no isolated nodes.
func PowerLawConfiguration(n, targetEdges, minDegree int, exponent float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 || targetEdges < 1 || minDegree < 0 || exponent <= 1 {
		return nil, fmt.Errorf("%w: PowerLawConfiguration(n=%d, m=%d, minDeg=%d, s=%g)", ErrParams, n, targetEdges, minDegree, exponent)
	}
	maxDeg := n - 1
	z, err := distribution.NewZipf(maxDeg, exponent)
	if err != nil {
		return nil, err
	}
	degrees := make([]int, n)
	total := 0
	for i := range degrees {
		d := z.Sample(rng)
		if d < minDegree {
			d = minDegree
		}
		degrees[i] = d
		total += d
	}
	// Scale the sequence toward 2*targetEdges stubs, capping hubs near
	// 2·sqrt(2m): above that, the expected stub-pairing multiplicity
	// d_u·d_v/(2m) between two hubs exceeds ~4 and the dropped duplicate
	// edges would hollow out the target edge count. (The real Wiki-Vote max
	// degree, 1065 on 100,762 edges, sits almost exactly at this cap.)
	want := 2 * targetEdges
	capHeavy := int(2 * math.Sqrt(float64(want)))
	if capHeavy > maxDeg {
		capHeavy = maxDeg
	}
	if capHeavy < minDegree+1 {
		capHeavy = minDegree + 1
	}
	// Binary-search one global scale factor s so that the clamped sequence
	// clamp(round(s·d), minDegree, capHeavy) sums to ~want. A single scale
	// preserves the low-degree mass of the Zipf draw (the nodes the paper's
	// trade-offs punish hardest), which iterative rescaling would drift
	// upward once the hub cap removes tail mass.
	clampedSum := func(s float64) int {
		sum := 0
		for _, d := range degrees {
			c := int(s*float64(d) + 0.5)
			if c < minDegree {
				c = minDegree
			}
			if c > capHeavy {
				c = capHeavy
			}
			sum += c
		}
		return sum
	}
	lo, hi := 0.0, 64.0
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if clampedSum(mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	total = 0
	for i := range degrees {
		d := int(hi*float64(degrees[i]) + 0.5)
		if d < minDegree {
			d = minDegree
		}
		if d > capHeavy {
			d = capHeavy
		}
		degrees[i] = d
		total += d
	}
	if total%2 != 0 {
		degrees[rng.Intn(n)]++
		total++
	}
	stubs := make([]int, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	g := graph.New(n)
	// Pair stubs; self-loops and duplicate edges are collisions. Instead of
	// dropping collisions outright (which costs heavy-tailed sequences close
	// to half their edges at hubs), re-shuffle the colliding stubs and retry
	// a few rounds, then drop whatever remains.
	for round := 0; round < 8 && len(stubs) > 1; round++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		failed := stubs[:0]
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) || g.Degree(u) >= maxDeg || g.Degree(v) >= maxDeg {
				failed = append(failed, u, v)
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
		stubs = failed
	}
	// Completion phase: the surviving stubs cluster on a few hubs that are
	// already saturated against each other, so stub-stub pairing stalls.
	// Attach each remaining stub to a uniform random non-neighbor instead —
	// a small departure from the pure configuration model that preserves the
	// heavy tail while restoring the target edge count.
	attempts := 0
	for i := 0; i < len(stubs) && g.NumEdges() < targetEdges && attempts < 40*len(stubs); i++ {
		u := stubs[i]
		v := rng.Intn(n)
		attempts++
		if u == v || g.HasEdge(u, v) || g.Degree(u) >= maxDeg || g.Degree(v) >= maxDeg {
			i-- // retry this stub with a fresh partner
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// DirectedPreferentialAttachment returns a directed graph of n nodes and
// close to targetEdges edges. Each new node emits out-edges whose count is
// drawn from a Zipf law (so out-degrees are heavy-tailed) toward targets
// chosen by in-degree-proportional preferential attachment, producing the
// few-celebrities/many-followers shape of the paper's Twitter sample.
// hubBoost extra in-stubs are granted to node 0 so a dmax-scale hub exists.
func DirectedPreferentialAttachment(n, targetEdges, hubBoost int, exponent float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 || targetEdges < 1 || exponent <= 1 || hubBoost < 0 {
		return nil, fmt.Errorf("%w: DirectedPreferentialAttachment(n=%d, m=%d)", ErrParams, n, targetEdges)
	}
	avgOut := float64(targetEdges) / float64(n)
	maxOut := n - 1
	if maxOut > 4096 {
		maxOut = 4096
	}
	z, err := distribution.NewZipf(maxOut, exponent)
	if err != nil {
		return nil, err
	}
	// Calibrate: E[Zipf] may differ from avgOut; compute a per-node repeat
	// factor by expected value.
	var ez float64
	for k := 1; k <= maxOut; k++ {
		ez += float64(k) * z.PMF(k)
	}
	scale := avgOut / ez
	g := graph.NewDirected(n)
	targets := make([]int, 0, 2*targetEdges+hubBoost)
	targets = append(targets, 0)
	for i := 0; i < hubBoost; i++ {
		targets = append(targets, 0)
	}
	for v := 1; v < n && g.NumEdges() < targetEdges; v++ {
		k := int(float64(z.Sample(rng))*scale + 0.5)
		if k < 1 {
			k = 1
		}
		if k > v {
			k = v
		}
		chosen := make([]int, 0, k)
		for len(chosen) < k {
			var u int
			if rng.Float64() < 0.2 {
				u = rng.Intn(v) // uniform mixing keeps the graph connected-ish
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			if u == v || u >= v || contains(chosen, u) {
				continue
			}
			chosen = append(chosen, u)
		}
		for _, u := range chosen {
			if err := g.AddEdge(v, u); err != nil {
				return nil, err
			}
			targets = append(targets, u)
		}
		targets = append(targets, v)
	}
	return g, nil
}
