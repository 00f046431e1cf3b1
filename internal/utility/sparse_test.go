package utility

import (
	"math/rand"
	"testing"

	"socialrec/internal/graph"
)

// allFunctions is the kernel matrix every sparse/dense agreement test runs
// over.
func allFunctions() []Function {
	return []Function{
		CommonNeighbors{},
		Jaccard{},
		Degree{},
		WeightedPaths{Gamma: 0.05},
		WeightedPaths{Gamma: 0.3, MaxLen: 4},
		PageRank{},
		PageRank{Alpha: 0.3, Iterations: 20},
	}
}

// sparseTestGraph builds a moderately sparse random simple graph with m
// edges (randomGraph in utility_test.go is density-driven; the sparse tests
// want an exact edge budget).
func sparseTestGraph(t *testing.T, n, m int, directed bool, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if directed {
		g = graph.NewDirected(n)
	} else {
		g = graph.New(n)
	}
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// checkSparseMatchesDense checks f's forms for target r on v, a view of g.
// Sparse and the dense denseVector both read f's kernel stream, so they must
// agree entry for entry and Sparse must list exactly the nonzero,
// non-excluded entries. That alone cannot catch a wrong kernel, so the
// utilities with a closed pairwise form are also checked against a
// reference computed one candidate at a time on g (pairwiseReference).
func checkSparseMatchesDense(t *testing.T, f Function, g *graph.Graph, v View, r int) {
	t.Helper()
	idx, val, err := f.Sparse(v, r)
	if err != nil {
		t.Fatalf("%s Sparse(%d): %v", f.Name(), r, err)
	}
	if len(idx) != len(val) {
		t.Fatalf("%s Sparse(%d): len(idx)=%d len(val)=%d", f.Name(), r, len(idx), len(val))
	}
	dense, err := denseVector(f, v, r)
	if err != nil {
		t.Fatalf("%s denseVector(%d): %v", f.Name(), r, err)
	}
	// idx ascending, values positive and bit-identical to the dense entry.
	for i := range idx {
		if i > 0 && idx[i] <= idx[i-1] {
			t.Fatalf("%s Sparse(%d): idx not strictly ascending at %d: %v", f.Name(), r, i, idx)
		}
		if val[i] <= 0 {
			t.Fatalf("%s Sparse(%d): non-positive support value %g at node %d", f.Name(), r, val[i], idx[i])
		}
		if dense[idx[i]] != val[i] {
			t.Fatalf("%s Sparse(%d): node %d sparse %v != dense %v", f.Name(), r, idx[i], val[i], dense[idx[i]])
		}
		if int(idx[i]) == r || v.HasEdge(r, int(idx[i])) {
			t.Fatalf("%s Sparse(%d): support contains excluded node %d", f.Name(), r, idx[i])
		}
	}
	// Nothing nonzero outside the support.
	nnz := 0
	for _, x := range dense {
		if x != 0 {
			nnz++
		}
	}
	if nnz != len(idx) {
		t.Fatalf("%s Sparse(%d): dense has %d nonzeros, sparse lists %d", f.Name(), r, nnz, len(idx))
	}
	if want := pairwiseReference(f, g, r); want != nil {
		for i := range want {
			if dense[i] != want[i] {
				t.Fatalf("%s denseVector(%d): node %d kernel %v, pairwise reference %v", f.Name(), r, i, dense[i], want[i])
			}
		}
	}
}

// pairwiseReference returns f's utility vector for target r computed one
// candidate at a time on g, or nil when f has no pairwise form: common
// neighbors from Graph.CommonNeighbors, Jaccard from the explicit
// intersection and union of out(r) and in(i), degree from OutDegree. The
// candidate mask is applied independently too: r and r's out-neighbors
// read 0.
func pairwiseReference(f Function, g *graph.Graph, r int) []float64 {
	switch f.(type) {
	case CommonNeighbors, Jaccard, Degree:
	default:
		return nil
	}
	want := make([]float64, g.NumNodes())
	for i := range want {
		if i == r || g.HasEdge(r, i) {
			continue
		}
		switch f.(type) {
		case CommonNeighbors:
			want[i] = float64(g.CommonNeighbors(r, i))
		case Jaccard:
			union := map[int]bool{}
			for _, a := range g.OutNeighbors(r) {
				union[a] = true
			}
			inter := 0
			for _, a := range g.InNeighbors(i) {
				if union[a] {
					inter++
				}
				union[a] = true
			}
			if inter > 0 {
				want[i] = float64(inter) / float64(len(union))
			}
		case Degree:
			want[i] = float64(g.OutDegree(i))
		}
	}
	return want
}

func TestSparseMatchesDenseAllKernels(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := sparseTestGraph(t, 120, 420, directed, 7)
		views := map[string]View{"graph": g, "csr": g.Snapshot()}
		for name, v := range views {
			for _, f := range allFunctions() {
				for r := 0; r < v.NumNodes(); r++ {
					checkSparseMatchesDense(t, f, g, v, r)
				}
			}
			_ = name
		}
	}
}

// TestSparseGraphAndSnapshotAgree pins that the map-backed fallback path
// (sorted row copies) produces the same support as the CSR span path.
func TestSparseGraphAndSnapshotAgree(t *testing.T) {
	g := sparseTestGraph(t, 80, 300, true, 3)
	snap := g.Snapshot()
	for _, f := range allFunctions() {
		for r := 0; r < 20; r++ {
			gi, gv, err := f.Sparse(g, r)
			if err != nil {
				t.Fatal(err)
			}
			si, sv, err := f.Sparse(snap, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(gi) != len(si) {
				t.Fatalf("%s target %d: graph nnz %d vs snapshot nnz %d", f.Name(), r, len(gi), len(si))
			}
			for k := range gi {
				if gi[k] != si[k] || gv[k] != sv[k] {
					t.Fatalf("%s target %d entry %d: graph (%d,%v) vs snapshot (%d,%v)",
						f.Name(), r, k, gi[k], gv[k], si[k], sv[k])
				}
			}
		}
	}
}

func TestSparseErrors(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range allFunctions() {
		if _, _, err := f.Sparse(g, -1); err == nil {
			t.Errorf("%s: negative target accepted", f.Name())
		}
		if _, _, err := f.Sparse(g, 4); err == nil {
			t.Errorf("%s: out-of-range target accepted", f.Name())
		}
	}
	if _, _, err := (WeightedPaths{Gamma: 0}).Sparse(g, 0); err == nil {
		t.Error("weighted paths gamma=0 accepted")
	}
	if _, _, err := (PageRank{Alpha: 1.5}).Sparse(g, 0); err == nil {
		t.Error("pagerank alpha=1.5 accepted")
	}
}

func TestCandidateCount(t *testing.T) {
	g := sparseTestGraph(t, 50, 120, false, 5)
	for r := 0; r < g.NumNodes(); r++ {
		if got, want := CandidateCount(g, r), len(Candidates(g, r)); got != want {
			t.Fatalf("CandidateCount(%d) = %d, want %d", r, got, want)
		}
	}
}

// TestScratchPoolReuseIsClean hammers the pooled scratch across many
// targets and kernels to catch stale state leaking between pooled uses.
func TestScratchPoolReuseIsClean(t *testing.T) {
	g := sparseTestGraph(t, 60, 200, true, 11)
	snap := g.Snapshot()
	want := map[int][]float64{}
	cn := CommonNeighbors{}
	for r := 0; r < 30; r++ {
		vec, err := denseVector(cn, snap, r)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = vec
	}
	// Interleave kernels (they share the pool) and recheck.
	for pass := 0; pass < 3; pass++ {
		for r := 0; r < 30; r++ {
			for _, f := range allFunctions() {
				if _, _, err := f.Sparse(snap, r); err != nil {
					t.Fatal(err)
				}
			}
			got, err := denseVector(cn, snap, r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[r][i] {
					t.Fatalf("pass %d target %d: entry %d drifted %v -> %v", pass, r, i, want[r][i], got[i])
				}
			}
		}
	}
}
