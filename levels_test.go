package socialrec

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/stream"
)

// len returns the number of the entry's support nodes.
func (cv *cachedVector) len() int { return stream.Len(cv.code, cv.val) }

// nodes decodes the entry's support node IDs in order; tests read cached
// IDs through it.
func (cv *cachedVector) nodes() []int32 {
	out := make([]int32, 0, cv.len())
	sc := cv.slice()
	for {
		i, _, ok := sc.Next()
		if !ok {
			return out
		}
		out = append(out, i)
	}
}

// TestCacheBytesPerNode pins the cache's cost per support node on the
// paper's common-neighbour utility, warmed with every target of the
// Wiki-Vote-like graph. Each entry is level-coded (one byte per node into
// a table of its distinct counts) with gap-coded node IDs, its decoded
// nodes and utilities equal the kernel's Sparse output bit for bit, and
// CacheStats.Bytes adds up every field of every entry exactly. It comes
// to about 1 B per node of ID gaps, 0.125 B of block offsets, 1 B code
// and 0.25 B of CDF block sums, plus about 360 B per entry for the entry
// struct (120 B), the CDF header (112 B) and the level table (8 B per
// distinct count): about 2.75 B per node at the graph's mean support of
// ~1,050 nodes, where a 4 B node ID per node read 5.57 B and a float64
// per node 12.4 B. The bound, 3.0 B, leaves no room for a second byte per
// gap or a 4 B ID per node.
func TestCacheBytesPerNode(t *testing.T) {
	g, err := gen.WikiVoteLike(distribution.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	rec, err := NewRecommender(g, WithCache(n), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	if warmed := rec.Precompute(targets); warmed != n {
		t.Fatalf("warmed %d of %d targets", warmed, n)
	}
	st := rec.state.Load()
	var nnz, want int
	for target, cv := range cachedAt(rec, st.epoch) {
		want += int(unsafe.Sizeof(*cv)) + len(cv.ids.Gaps) + 4*len(cv.ids.Off) + len(cv.code) + 8*len(cv.val)
		if cv.cdf != nil {
			want += int(unsafe.Sizeof(*cv.cdf)) + 8*len(cv.cdf.Blocks)
		}
		idx, val, err := rec.util.Sparse(st.snap, target)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) > 0 && cv.code == nil {
			t.Fatalf("target %d: %d nodes stored one float64 each, want level-coded", target, len(idx))
		}
		nodes := cv.nodes()
		if len(nodes) != len(idx) {
			t.Fatalf("target %d: cached %d nodes, Sparse %d", target, len(nodes), len(idx))
		}
		for j := range idx {
			if nodes[j] != idx[j] || math.Float64bits(cv.at(j)) != math.Float64bits(val[j]) {
				t.Fatalf("target %d entry %d: cached (%d, %v), Sparse (%d, %v)", target, j, nodes[j], cv.at(j), idx[j], val[j])
			}
		}
		nnz += len(idx)
	}
	stats, _ := rec.CacheStats()
	if stats.Entries != n {
		t.Fatalf("%d entries cached, want %d", stats.Entries, n)
	}
	if stats.Bytes != int64(want) {
		t.Fatalf("CacheStats.Bytes = %d, entry fields add up to %d", stats.Bytes, want)
	}
	perNode := float64(stats.Bytes) / float64(nnz)
	t.Logf("%d entries, %d support nodes, %d B: %.3f B per node", stats.Entries, nnz, stats.Bytes, perNode)
	if perNode > 3.0 {
		t.Fatalf("cache costs %.3f B per support node, want <= 3.0", perNode)
	}
}

// levelsGraph builds a graph whose target 0 has a common-neighbour support
// with exactly distinct different counts, each repeated, plus a zero tail.
// Target 0's out-neighbours are the hubs 1..distinct. Candidate a_i
// (i = 1..distinct) links to hubs 1..i, so it shares i neighbours with the
// target; every third i also has a twin b_i linked to the last i hubs, so
// levels repeat out of node order. tail isolated nodes are zero-utility
// candidates.
func levelsGraph(t *testing.T, distinct, tail int) *Graph {
	t.Helper()
	twins := (distinct + 2) / 3
	g := NewGraph(1 + distinct + distinct + twins + tail)
	edge := func(u, v int) {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for h := 1; h <= distinct; h++ {
		edge(0, h)
	}
	next := 1 + distinct
	for i := 1; i <= distinct; i++ {
		a := next
		next++
		for h := 1; h <= i; h++ {
			edge(a, h)
		}
		if i%3 == 1 {
			b := next
			next++
			for h := distinct - i + 1; h <= distinct; h++ {
				edge(b, h)
			}
		}
	}
	return g
}

// TestLevelBoundaryCachedMatchesUncached covers both sides of the coded
// form's limit: a support with exactly 256 distinct utilities is cached
// level-coded, one with 257 keeps a float64 per node. For each, a cached
// Recommender answers pick for pick like an uncached one at fixed seeds,
// for every mechanism at k = 1 (the exponential one through the cached
// CDF) and at k = 5 (the peeled exponential, Laplace noisy top-k, best
// top-k and smoothing top-k). ε is small enough that the zero tail wins a
// share of the exponential draws, so tail ranks are compared too.
func TestLevelBoundaryCachedMatchesUncached(t *testing.T) {
	const target, tail = 0, 300
	for _, distinct := range []int{256, 257} {
		g := levelsGraph(t, distinct, tail)
		for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone} {
			opts := []Option{WithMechanism(kind), WithEpsilon(0.01), WithSeed(3)}
			plain, err := NewRecommender(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := NewRecommender(g, append(opts, WithCache(16))...)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := cached.vector(cached.state.Load(), target)
			if err != nil {
				t.Fatal(err)
			}
			wantVals := cv.len()
			if distinct <= 256 {
				wantVals = distinct
			}
			if (cv.code != nil) != (distinct <= 256) || len(cv.val) != wantVals {
				t.Fatalf("%d distinct: coded=%v with %d values for %d nodes", distinct, cv.code != nil, len(cv.val), cv.len())
			}
			if kind == MechanismExponential && cv.cdf == nil {
				t.Fatalf("%d distinct: no cached CDF", distinct)
			}
			tails := 0
			for seed := int64(0); seed < 400; seed++ {
				want, errW := plain.RecommendWithRNG(target, rand.New(rand.NewSource(seed)))
				got, errG := cached.RecommendWithRNG(target, rand.New(rand.NewSource(seed)))
				if errW != nil || errG != nil || want != got {
					t.Fatalf("%d distinct, %v, seed %d: cached %+v (%v), uncached %+v (%v)", distinct, kind, seed, got, errG, want, errW)
				}
				if want.Utility == 0 {
					tails++
				}
				if seed%4 != 0 {
					continue
				}
				wantK, errW := plain.RecommendTopKWithRNG(target, 5, rand.New(rand.NewSource(seed)))
				gotK, errG := cached.RecommendTopKWithRNG(target, 5, rand.New(rand.NewSource(seed)))
				if errW != nil || errG != nil || len(wantK) != len(gotK) {
					t.Fatalf("%d distinct, %v, seed %d: top-k errors %v / %v", distinct, kind, seed, errG, errW)
				}
				for i := range wantK {
					if wantK[i] != gotK[i] {
						t.Fatalf("%d distinct, %v, seed %d: top-k[%d] cached %+v, uncached %+v", distinct, kind, seed, i, gotK[i], wantK[i])
					}
				}
			}
			if kind == MechanismExponential && tails == 0 {
				t.Fatalf("%d distinct: no tail picks in 400 exponential draws", distinct)
			}
		}
	}
}
