package mechanism

import (
	"math/rand"
	"testing"

	"socialrec/internal/stream"
)

// Tests for the streaming consumers. The load-bearing claims are (1) a
// draw depends only on the streamed utilities, not on the node IDs they
// carry: for a fixed seed, RecommendStream over a case's real node IDs and
// over supportStream's positional IDs pick the same candidate, across all
// mechanisms and tail shapes — which is what lets serving feed one draw
// from a kernel's scorer or from a cached entry's slice; (2) the same
// holds for the top-k releases; and (3) the streamed incremental-CDF
// exponential draw and streamed top-k follow their closed-form laws
// (chi-squared GOF), so no draw bends a distribution the privacy proof is
// about.

// sliceScorer builds a stream.Scorer over a sparse case, using the dense
// positions as node IDs.
func sliceScorer(tc sparseCase) stream.Scorer {
	idx := make([]int32, len(tc.pos))
	for i, p := range tc.pos {
		idx[i] = int32(p)
	}
	return stream.NewSlice(idx, tc.s.Val)
}

// samePick reports whether a streamed pick names the same candidate as a
// pick drawn over supportStream of the same case.
func samePick(tc sparseCase, sp StreamPick, p Pick) bool {
	if sp.IsTail != p.IsTail() {
		return false
	}
	if sp.IsTail {
		return sp.Tail == p.Tail
	}
	return sp.Node == int32(tc.pos[p.Support]) && sp.Util == tc.s.Val[p.Support]
}

func TestStreamMatchesSparseBitIdentical(t *testing.T) {
	mechs := []struct {
		name   string
		sparse StreamMechanism
		stream StreamMechanism
	}{
		{"exponential", Exponential{Epsilon: 1, Sensitivity: 2}, Exponential{Epsilon: 1, Sensitivity: 2}},
		{"laplace", Laplace{Epsilon: 1, Sensitivity: 1}, Laplace{Epsilon: 1, Sensitivity: 1}},
		{"best", Best{}, Best{}},
		{"uniform", Uniform{}, Uniform{}},
		{"smoothing", Smoothing{X: 0.7, Base: Best{}}, Smoothing{X: 0.7, Base: Best{}}},
	}
	for _, tc := range sparseCases() {
		sc := sliceScorer(tc)
		for _, m := range mechs {
			sparseRNG := rand.New(rand.NewSource(17))
			streamRNG := rand.New(rand.NewSource(17))
			for i := 0; i < 3000; i++ {
				p, err := drawStream(m.sparse, tc.s, sparseRNG)
				if err != nil {
					t.Fatalf("%s/%s sparse: %v", tc.name, m.name, err)
				}
				sp, err := m.stream.RecommendStream(sc, tc.s.N, streamRNG)
				if err != nil {
					t.Fatalf("%s/%s stream: %v", tc.name, m.name, err)
				}
				if !samePick(tc, sp, p) {
					t.Fatalf("%s/%s draw %d: streamed %+v vs sparse %+v", tc.name, m.name, i, sp, p)
				}
			}
		}
	}
}

func TestTopKStreamMatchesSparse(t *testing.T) {
	const eps, sens = 1.0, 1.0
	for _, tc := range sparseCases() {
		sc := sliceScorer(tc)
		for _, k := range []int{1, 2, 5} {
			if k > tc.s.N {
				continue
			}
			for _, fns := range []struct {
				name   string
				sparse func(rng *rand.Rand) ([]Pick, error)
				stream func(rng *rand.Rand) ([]StreamPick, error)
			}{
				{"laplace",
					func(rng *rand.Rand) ([]Pick, error) {
						return asPicks(TopKLaplaceStream(eps, sens, supportStream(tc.s), tc.s.N, k, rng))
					},
					func(rng *rand.Rand) ([]StreamPick, error) {
						return TopKLaplaceStream(eps, sens, sc, tc.s.N, k, rng)
					}},
				{"peel",
					func(rng *rand.Rand) ([]Pick, error) {
						return asPicks(TopKPeelStream(eps, sens, supportStream(tc.s), tc.s.N, k, rng))
					},
					func(rng *rand.Rand) ([]StreamPick, error) {
						return TopKPeelStream(eps, sens, sc, tc.s.N, k, rng)
					}},
			} {
				sparseRNG := rand.New(rand.NewSource(23))
				streamRNG := rand.New(rand.NewSource(23))
				for trial := 0; trial < 500; trial++ {
					ps, err := fns.sparse(sparseRNG)
					if err != nil {
						t.Fatalf("%s/%s k=%d sparse: %v", tc.name, fns.name, k, err)
					}
					sps, err := fns.stream(streamRNG)
					if err != nil {
						t.Fatalf("%s/%s k=%d stream: %v", tc.name, fns.name, k, err)
					}
					if len(ps) != len(sps) {
						t.Fatalf("%s/%s k=%d: %d streamed picks vs %d sparse", tc.name, fns.name, k, len(sps), len(ps))
					}
					for i := range ps {
						if !samePick(tc, sps[i], ps[i]) {
							t.Fatalf("%s/%s k=%d trial %d: pick %d streamed %+v vs sparse %+v",
								tc.name, fns.name, k, trial, i, sps[i], ps[i])
						}
					}
				}
			}
		}
	}
}

func TestBestTopKStreamMatchesTopIndices(t *testing.T) {
	for _, tc := range sparseCases() {
		sc := sliceScorer(tc)
		for _, k := range []int{1, 3, 7} {
			if k > tc.s.N {
				continue
			}
			got, err := BestTopKStream(sc, tc.s.N, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			var want []StreamPick
			if ks := min(k, len(tc.s.Val)); ks > 0 {
				for _, i := range denseTopIndices(tc.s.Val, ks) {
					want = append(want, StreamPick{Node: int32(tc.pos[i]), Util: tc.s.Val[i]})
				}
			}
			for rank := 0; len(want) < k; rank++ {
				want = append(want, StreamPick{IsTail: true, Tail: rank})
			}
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d picks, want %d", tc.name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d pick %d: got %+v, want %+v", tc.name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamedExponentialGOF is the incremental-CDF goodness-of-fit check:
// the three-pass streamed exponential draw (running max, running mass,
// linear prefix crossing) must follow the same closed-form law the
// cached two-stage draw does. Cells are the support entries plus the
// aggregated tail.
func TestStreamedExponentialGOF(t *testing.T) {
	const trials = 200000
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	for _, tc := range sparseCases() {
		u := expandSparse(t, tc.s, tc.pos)
		probs := denseProbabilities(e, u)
		expected := make([]float64, len(tc.s.Val)+1)
		for i, p := range tc.pos {
			expected[i] = probs[p]
		}
		ptail := 1.0
		for _, p := range expected[:len(tc.s.Val)] {
			ptail -= p
		}
		expected[len(tc.s.Val)] = ptail
		cells := len(expected)
		if tc.s.tail() == 0 {
			cells--
		}
		sc := sliceScorer(tc)
		rng := rand.New(rand.NewSource(42))
		counts := make([]int, cells)
		posOf := make(map[int32]int, len(tc.pos))
		for i, p := range tc.pos {
			posOf[int32(p)] = i
		}
		for i := 0; i < trials; i++ {
			sp, err := e.RecommendStream(sc, tc.s.N, rng)
			if err != nil {
				t.Fatal(err)
			}
			if sp.IsTail {
				if tc.s.tail() == 0 {
					t.Fatalf("%s: tail pick from tail-less stream", tc.name)
				}
				if sp.Tail < 0 || sp.Tail >= tc.s.tail() {
					t.Fatalf("%s: tail rank %d outside [0,%d)", tc.name, sp.Tail, tc.s.tail())
				}
				counts[len(tc.s.Val)]++
			} else {
				counts[posOf[sp.Node]]++
			}
		}
		stat := chiSquared(t, counts, expected[:cells], trials)
		crit, ok := chi2Critical999[cells-1]
		if !ok {
			t.Fatalf("no critical value for df=%d", cells-1)
		}
		if stat > crit {
			t.Fatalf("%s: chi-squared %.3f exceeds %.3f (df=%d): streamed draw off the exponential law\ncounts: %v\nexpected: %v",
				tc.name, stat, crit, cells-1, counts, expected)
		}
	}
}

// TestStreamedTopKFirstPickGOF checks the streamed peel's first release
// against its law: peeling at ε/k means the first pick follows the
// exponential mechanism with the derated ε over the full domain.
func TestStreamedTopKFirstPickGOF(t *testing.T) {
	const trials = 120000
	const eps, sens = 2.0, 1.0
	const k = 2
	tc := sparseCase{"topk-gof", SparseVec{Val: []float64{3, 1, 2}, N: 53}, []int{5, 17, 30}}
	u := expandSparse(t, tc.s, tc.pos)
	first := Exponential{Epsilon: eps / k, Sensitivity: sens}
	probs := denseProbabilities(first, u)
	expected := make([]float64, len(tc.s.Val)+1)
	for i, p := range tc.pos {
		expected[i] = probs[p]
	}
	ptail := 1.0
	for _, p := range expected[:len(tc.s.Val)] {
		ptail -= p
	}
	expected[len(tc.s.Val)] = ptail
	posOf := make(map[int32]int, len(tc.pos))
	for i, p := range tc.pos {
		posOf[int32(p)] = i
	}
	sc := sliceScorer(tc)
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, len(expected))
	for i := 0; i < trials; i++ {
		picks, err := TopKPeelStream(eps, sens, sc, tc.s.N, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sp := picks[0]; sp.IsTail {
			counts[len(tc.s.Val)]++
		} else {
			counts[posOf[sp.Node]]++
		}
	}
	stat := chiSquared(t, counts, expected, trials)
	if crit := chi2Critical999[len(expected)-1]; stat > crit {
		t.Fatalf("chi-squared %.3f exceeds %.3f: streamed peel's first pick off the ε/k law\ncounts: %v\nexpected: %v",
			stat, crit, counts, expected)
	}
}
