package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/stream"
)

// Tests for the shared top-k peel. Its weights are cached across rounds and
// recomputed only when the remaining maximum changes, and each round picks
// by a linear scan instead of a binary search over a fresh CDF. The
// reference is the peel as it stood before: every round a full
// Exponential.RecommendStream draw over the remaining support. For a fixed
// seed both must release the identical sequence.

func oraclePeel(eps, sens float64, s SparseVec, k int, rng *rand.Rand) ([]Pick, error) {
	if !(eps > 0) {
		return nil, ErrBadEpsilon
	}
	if !(sens > 0) {
		return nil, ErrBadSens
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > s.N {
		return nil, fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, s.N)
	}
	round := Exponential{Epsilon: eps / float64(k), Sensitivity: sens}
	remaining := append([]float64(nil), s.Val...)
	alive := make([]int, len(s.Val)) // alive[i] = original support index at slot i
	for i := range alive {
		alive[i] = i
	}
	m := s.tail()
	var taken TailTracker
	out := make([]Pick, 0, k)
	for len(out) < k {
		pick, err := drawStream(round, SparseVec{Val: remaining, N: len(remaining) + m}, rng)
		if err != nil {
			return nil, err
		}
		if pick.IsTail() {
			out = append(out, TailPick(taken.Take(pick.Tail)))
			m--
			continue
		}
		out = append(out, Pick{Support: alive[pick.Support]})
		last := len(remaining) - 1
		remaining[pick.Support], remaining[last] = remaining[last], remaining[pick.Support]
		alive[pick.Support], alive[last] = alive[last], alive[pick.Support]
		remaining = remaining[:last]
		alive = alive[:last]
	}
	return out, nil
}

// peelCase is a peel fixture: a support, the ε its peels run at and the k
// values to release.
type peelCase struct {
	name string
	s    SparseVec
	eps  float64
	ks   []int
}

func TestPeelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := make([]float64, 300)
	for i := range random {
		random[i] = float64(1+rng.Intn(6)) + 0.005*float64(rng.Intn(40))
	}
	cases := []peelCase{
		{"tied-max", SparseVec{Val: []float64{4, 1, 4, 2, 4, 3}, N: 10}, 8, []int{1, 2, 3, 4, 6, 10}},
		{"unique-max-removed", SparseVec{Val: []float64{2, 9, 3, 1}, N: 7}, 20, []int{1, 2, 4, 7}},
		{"underflow", SparseVec{Val: []float64{1000, 1, 2, 999.5, 0.5}, N: 9}, 1, []int{1, 2, 3, 5, 9}},
		{"underflow-no-tail", SparseVec{Val: []float64{3, 900, 1, 2}, N: 4}, 4, []int{1, 2, 4}},
		{"nnz-zero", SparseVec{N: 6}, 1, []int{1, 3, 6}},
		{"empty-tail", SparseVec{Val: []float64{0.5, 3, 1, 2, 2}, N: 5}, 1, []int{1, 2, 5}},
		{"k-equals-n", SparseVec{Val: []float64{1, 2, 3}, N: 8}, 2, []int{8}},
		{"random", SparseVec{Val: random, N: 1000}, 1, []int{1, 5, 10, 40}},
	}
	for _, tc := range sparseCases() {
		cases = append(cases, peelCase{tc.name, tc.s, 1, []int{1, 2, tc.s.N}})
	}
	for _, tc := range cases {
		idx := make([]int32, len(tc.s.Val))
		for i := range idx {
			idx[i] = int32(3*i + 1)
		}
		sc := stream.NewSlice(idx, tc.s.Val)
		for _, k := range tc.ks {
			oracleRNG := rand.New(rand.NewSource(int64(97 + k)))
			sparseRNG := rand.New(rand.NewSource(int64(97 + k)))
			streamRNG := rand.New(rand.NewSource(int64(97 + k)))
			for trial := 0; trial < 100; trial++ {
				want, err := oraclePeel(tc.eps, 1, tc.s, k, oracleRNG)
				if err != nil {
					t.Fatalf("%s k=%d oracle: %v", tc.name, k, err)
				}
				got, err := asPicks(TopKPeelStream(tc.eps, 1, supportStream(tc.s), tc.s.N, k, sparseRNG))
				if err != nil {
					t.Fatalf("%s k=%d sparse: %v", tc.name, k, err)
				}
				streamed, err := TopKPeelStream(tc.eps, 1, sc, tc.s.N, k, streamRNG)
				if err != nil {
					t.Fatalf("%s k=%d stream: %v", tc.name, k, err)
				}
				if len(got) != len(want) || len(streamed) != len(want) {
					t.Fatalf("%s k=%d: %d sparse and %d streamed picks, oracle %d", tc.name, k, len(got), len(streamed), len(want))
				}
				for i, w := range want {
					sp := streamed[i]
					sameStream := sp.IsTail == w.IsTail() &&
						(sp.IsTail && sp.Tail == w.Tail ||
							!sp.IsTail && sp.Node == idx[w.Support] && math.Float64bits(sp.Util) == math.Float64bits(tc.s.Val[w.Support]))
					if got[i] != w || !sameStream {
						t.Fatalf("%s k=%d trial %d pick %d: sparse %+v, streamed %+v, oracle %+v", tc.name, k, trial, i, got[i], sp, w)
					}
				}
			}
		}
	}
}

// TestPeelRecomputesOnlyWhenMaxChanges pins the weight cache's staleness
// rule: removing one of several entries tied at the maximum keeps the
// weights, removing the last one at the maximum invalidates them.
func TestPeelRecomputesOnlyWhenMaxChanges(t *testing.T) {
	ps := &peelScratch{vals: []float64{4, 1, 4, 2}, ids: []int32{0, 1, 2, 3}}
	ps.reweigh(1)
	if ps.umax != 4 || ps.ties != 2 {
		t.Fatalf("umax %v ties %d, want 4 and 2", ps.umax, ps.ties)
	}
	before := append([]float64(nil), ps.w...)
	if ps.remove(0) {
		t.Fatal("removing one of two tied maxima marked the weights stale")
	}
	// Slot 0 now holds the former last entry (utility 2) and its weight.
	if ps.vals[0] != 2 || ps.w[0] != before[3] {
		t.Fatalf("swap-remove out of step: vals %v weights %v", ps.vals, ps.w)
	}
	if ps.remove(1) {
		t.Fatal("removing a non-maximal entry marked the weights stale")
	}
	if !ps.remove(1) { // the remaining 4
		t.Fatal("removing the last maximal entry kept the weights")
	}
	ps.reweigh(1)
	if ps.umax != 2 || ps.ties != 1 || ps.w[0] != 1 {
		t.Fatalf("after recompute: umax %v ties %d weights %v", ps.umax, ps.ties, ps.w)
	}
}

// TestPeelScratchReuse runs a large peel and then a small one through the
// pool: the grown scratch must not leak the earlier support into the later
// release.
func TestPeelScratchReuse(t *testing.T) {
	big := SparseVec{Val: make([]float64, 500), N: 600}
	for i := range big.Val {
		big.Val[i] = float64(i%7 + 1)
	}
	small := SparseVec{Val: []float64{2, 1}, N: 3}
	for trial := 0; trial < 20; trial++ {
		if _, err := TopKPeelStream(1, 1, supportStream(big), big.N, 10, rand.New(rand.NewSource(int64(trial)))); err != nil {
			t.Fatal(err)
		}
		want, err := oraclePeel(1, 1, small, 3, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		got, err := asPicks(TopKPeelStream(1, 1, supportStream(small), small.N, 3, rand.New(rand.NewSource(int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pick %d: %+v after a large peel, oracle %+v", trial, i, got[i], want[i])
			}
		}
	}
}
