package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"socialrec/internal/stream"
)

// Tests for the sparse form. The load-bearing claims are (1) sparse
// closed-form probabilities equal the dense oracle's (dense_test.go) on the
// expanded vector,
// (2) the two-stage exponential draw — support CDF plus closed-form zero
// tail, streamed or from a cached SparseCDF — follows the dense law
// (chi-squared GOF, including the all-tail and no-tail boundaries), and
// (3) with no tail the draw is bit-identical to the dense draw for a fixed
// seed. Draws run over supportStream, so a pick converts back to a Pick.

// supportStream streams s's support with each entry's support index as its
// node ID, so asPick turns a streamed pick back into a Pick.
func supportStream(s SparseVec) stream.Scorer {
	idx := make([]int32, len(s.Val))
	for i := range idx {
		idx[i] = int32(i)
	}
	return stream.NewSlice(idx, s.Val)
}

// asPick converts a pick drawn over supportStream into a Pick.
func asPick(p StreamPick) Pick {
	if p.IsTail {
		return TailPick(p.Tail)
	}
	return Pick{Support: int(p.Node)}
}

// asPicks converts a top-k release drawn over supportStream into Picks.
func asPicks(ps []StreamPick, err error) ([]Pick, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Pick, len(ps))
	for i, p := range ps {
		out[i] = asPick(p)
	}
	return out, nil
}

// drawStream is m.RecommendStream over s's support, as a Pick.
func drawStream(m StreamMechanism, s SparseVec, rng *rand.Rand) (Pick, error) {
	p, err := m.RecommendStream(supportStream(s), s.N, rng)
	return asPick(p), err
}

// expandSparse scatters s.Val onto a dense vector of length s.N with the
// support occupying positions pos (ascending); remaining positions are the
// zero tail.
func expandSparse(t *testing.T, s SparseVec, pos []int) []float64 {
	t.Helper()
	if len(pos) != len(s.Val) {
		t.Fatalf("expandSparse: %d positions for %d values", len(pos), len(s.Val))
	}
	u := make([]float64, s.N)
	for i, p := range pos {
		if i > 0 && p <= pos[i-1] {
			t.Fatalf("expandSparse: positions not ascending: %v", pos)
		}
		u[p] = s.Val[i]
	}
	return u
}

// sparseCase is one (sparse vector, dense expansion) fixture.
type sparseCase struct {
	name string
	s    SparseVec
	pos  []int
}

func sparseCases() []sparseCase {
	return []sparseCase{
		{"large-tail", SparseVec{Val: []float64{3, 1, 2}, N: 403}, []int{5, 17, 300}},
		{"small-mixed", SparseVec{Val: []float64{1, 4, 2, 2}, N: 9}, []int{0, 3, 4, 8}},
		{"single-nonzero-all-tail", SparseVec{Val: []float64{5}, N: 50}, []int{13}},
		{"no-tail", SparseVec{Val: []float64{0, 1, 2, 3, 5}, N: 5}, []int{0, 1, 2, 3, 4}},
	}
}

func TestSparseProbabilitiesMatchDense(t *testing.T) {
	mechs := []struct {
		name   string
		sparse closedForm
		exact  bool
	}{
		{"exponential", Exponential{Epsilon: 1, Sensitivity: 2}, false},
		{"best", Best{}, true},
		{"uniform", Uniform{}, true},
		{"smoothing", Smoothing{X: 0.7, Base: Best{}}, true},
	}
	for _, tc := range sparseCases() {
		u := expandSparse(t, tc.s, tc.pos)
		for _, m := range mechs {
			dense := denseProbabilities(m.sparse, u)
			support, tailEach, err := m.sparse.ProbabilitiesSparse(tc.s)
			if err != nil {
				t.Fatalf("%s/%s sparse: %v", tc.name, m.name, err)
			}
			check := func(got, want float64, where string, idx int) {
				diff := math.Abs(got - want)
				tol := 0.0
				if !m.exact {
					tol = 1e-13 * (want + 1)
				}
				if diff > tol {
					t.Errorf("%s/%s: %s %d: sparse %v vs dense %v", tc.name, m.name, where, idx, got, want)
				}
			}
			for i, p := range tc.pos {
				check(support[i], dense[p], "support", i)
			}
			rank := 0
			for d := 0; d < tc.s.N; d++ {
				isSupport := false
				for _, p := range tc.pos {
					if p == d {
						isSupport = true
						break
					}
				}
				if isSupport {
					continue
				}
				check(tailEach, dense[d], "tail", rank)
				rank++
			}
			// Total mass 1.
			total := float64(tc.s.tail()) * tailEach
			for _, p := range support {
				total += p
			}
			if math.Abs(total-1) > 1e-12 {
				t.Errorf("%s/%s: sparse mass %v != 1", tc.name, m.name, total)
			}
		}
	}
}

func TestExpectedAccuracySparseMatchesDense(t *testing.T) {
	e := Exponential{Epsilon: 1, Sensitivity: 2}
	sm := Smoothing{X: 0.6, Base: Best{}}
	for _, tc := range sparseCases() {
		if tc.s.max() == 0 {
			continue
		}
		u := expandSparse(t, tc.s, tc.pos)
		for name, m := range map[string]closedForm{
			"exponential": e,
			"smoothing":   sm,
			"best":        Best{},
		} {
			denseAcc := denseExpectedAccuracy(m, u)
			sparseAcc, err := ExpectedAccuracySparse(m, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(denseAcc-sparseAcc) > 1e-12 {
				t.Errorf("%s/%s: accuracy sparse %v vs dense %v", tc.name, name, sparseAcc, denseAcc)
			}
		}
	}
}

// TestSparseExponentialTwoStageGOF is the zero-tail chi-squared test: the
// two-stage sparse draw (support-vs-tail mass split, then binary-searched
// support CDF or uniform tail rank) must follow the dense closed-form law.
// Cells are the individual support entries plus the tail aggregated; the
// all-tail (single nonzero, umax > 0) and no-tail boundaries are included.
// Both the streamed RecommendStream path and the cached SampleSparseCDF
// path are checked.
func TestSparseExponentialTwoStageGOF(t *testing.T) {
	const trials = 200000
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	for _, tc := range sparseCases() {
		u := expandSparse(t, tc.s, tc.pos)
		probs := denseProbabilities(e, u)
		// Expected masses: one cell per support entry, one for the tail.
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
			cells-- // no tail cell to count
		}
		cdf, err := e.SparseCDF(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name string
			draw func(rng *rand.Rand) Pick
		}{
			{"direct", func(rng *rand.Rand) Pick {
				p, err := drawStream(e, tc.s, rng)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}},
			{"cached-cdf", func(rng *rand.Rand) Pick { return SampleSparseCDF(cdf, rng) }},
		} {
			rng := rand.New(rand.NewSource(42))
			counts := make([]int, cells)
			for i := 0; i < trials; i++ {
				p := path.draw(rng)
				if p.IsTail() {
					if tc.s.tail() == 0 {
						t.Fatalf("%s/%s: tail pick from tail-less vector", tc.name, path.name)
					}
					if p.Tail < 0 || p.Tail >= tc.s.tail() {
						t.Fatalf("%s/%s: tail rank %d outside [0,%d)", tc.name, path.name, p.Tail, tc.s.tail())
					}
					counts[len(tc.s.Val)]++
				} else {
					counts[p.Support]++
				}
			}
			stat := chiSquared(t, counts, expected[:cells], trials)
			crit, ok := chi2Critical999[cells-1]
			if !ok {
				t.Fatalf("no critical value for df=%d", cells-1)
			}
			if stat > crit {
				t.Fatalf("%s/%s: chi-squared %.3f exceeds %.3f (df=%d): two-stage draw off the exponential law\ncounts: %v\nexpected: %v",
					tc.name, path.name, stat, crit, cells-1, counts, expected)
			}
		}
	}
}

// TestSparseExponentialTailRankUniform checks the second stage of the
// two-stage draw: conditioned on hitting the tail, the rank must be uniform
// over the zero-utility candidates.
func TestSparseExponentialTailRankUniform(t *testing.T) {
	s := SparseVec{Val: []float64{2, 1}, N: 402} // 400 tail candidates
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	const bins = 8
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, bins)
	tails := 0
	for i := 0; i < 400000 && tails < 120000; i++ {
		p, err := drawStream(e, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsTail() {
			counts[p.Tail*bins/s.tail()]++
			tails++
		}
	}
	if tails < 40000 {
		t.Fatalf("only %d tail draws; fixture no longer tail-heavy", tails)
	}
	probs := make([]float64, bins)
	for i := range probs {
		probs[i] = 1.0 / bins
	}
	stat := chiSquared(t, counts, probs, tails)
	if crit := chi2Critical999[bins-1]; stat > crit {
		t.Fatalf("tail ranks not uniform: chi-squared %.3f > %.3f\ncounts: %v", stat, crit, counts)
	}
}

// TestSparseNoTailBitIdentical pins the exact-equivalence boundary: when
// every candidate is in the support, the sparse draw consumes the same
// single uniform and inverts the same CDF as the dense draw, so a fixed
// seed yields identical picks.
func TestSparseNoTailBitIdentical(t *testing.T) {
	u := []float64{0, 1, 2, 3, 5, 2.5, 0.25}
	s := SparseVec{Val: u, N: len(u)}
	e := Exponential{Epsilon: 1.3, Sensitivity: 2}
	denseRNG := rand.New(rand.NewSource(99))
	sparseRNG := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		d := denseExponential(e, u, denseRNG)
		p, err := drawStream(e, s, sparseRNG)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsTail() || p.Support != d {
			t.Fatalf("draw %d: dense %d vs sparse %+v", i, d, p)
		}
	}
	// Cached path: SampleSparseCDF vs denseSampleCDF, the per-entry
	// prefix-sum oracle, over supports from one block to many.
	for _, tc := range cdfBlockCases(u) {
		t.Run(tc.name, func(t *testing.T) {
			cdf := denseCDF(e, tc.val)
			scdf, err := e.SparseCDF(SparseVec{Val: tc.val, N: len(tc.val)})
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "underflow-plateau" && (scdf.Blocks[0] != scdf.Blocks[1] || scdf.Blocks[1] == scdf.Blocks[2]) {
				t.Fatalf("fixture no longer plateaus across blocks 0-1: %v", scdf.Blocks)
			}
			denseRNG := rand.New(rand.NewSource(3))
			sparseRNG := rand.New(rand.NewSource(3))
			for i := 0; i < 5000; i++ {
				d := denseSampleCDF(cdf, denseRNG)
				p := SampleSparseCDF(scdf, sparseRNG)
				if p.IsTail() || p.Support != d {
					t.Fatalf("cached draw %d: dense %d vs sparse %+v", i, d, p)
				}
			}
		})
	}
}

// cdfBlockCase is one support for the block-layout pins of SparseCDF.
type cdfBlockCase struct {
	name string
	val  []float64
}

// cdfBlockCases returns supports that fill exactly one block, end one entry
// short of or past a block boundary, and span many blocks, led by base.
// Utilities are a mix of integers (ties) and continuous values, with some
// zeros. The last case puts entries whose weights underflow to 0 between
// two groups of large utilities, so the prefix sums plateau across the
// block boundaries at 32 and 64.
func cdfBlockCases(base []float64) []cdfBlockCase {
	cases := []cdfBlockCase{{"base", base}}
	for _, n := range []int{1, 31, 32, 33, 64, 1000, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		val := make([]float64, n)
		for i := range val {
			switch rng.Intn(4) {
			case 0:
				val[i] = float64(1 + rng.Intn(20))
			case 1:
				val[i] = 0
			default:
				val[i] = 20 * rng.Float64()
			}
		}
		cases = append(cases, cdfBlockCase{fmt.Sprintf("nnz=%d", n), val})
	}
	plateau := make([]float64, 130)
	for i := range plateau {
		switch {
		case i <= 10:
			plateau[i] = 1495 + float64(i)/2
		case i <= 80:
			plateau[i] = float64(i % 5)
		default:
			plateau[i] = 1490 + float64(i%11)
		}
	}
	return append(cases, cdfBlockCase{"underflow-plateau", plateau})
}

// levelCode returns val in the level-coded form of package stream's
// convention, or false past stream.MaxLevels distinct values. Unlike
// stream.Encode it admits the zeros cdfBlockCases mixes into supports.
func levelCode(val []float64) ([]uint8, []float64, bool) {
	levels := slices.Clone(val)
	slices.Sort(levels)
	levels = slices.Compact(levels)
	if len(levels) > stream.MaxLevels {
		return nil, nil, false
	}
	code := make([]uint8, len(val))
	for j, x := range val {
		k, _ := slices.BinarySearch(levels, x)
		code[j] = uint8(k)
	}
	return code, levels, true
}

// TestSparseCDFMatchesStream pins the cached draw against the streamed one
// when the support has a zero tail: SampleSparseCDF and
// Exponential.RecommendStream consume the same single uniform, so a fixed
// seed yields the same support index or the same tail rank, draw for draw,
// over supports of one block to many. Every support with at most 256
// distinct utilities, and a 5,000-entry one of integer utilities in
// [1, 20], is also drawn from a CDF over its level-coded form, which must
// pick exactly as the streamed per-entry support does.
func TestSparseCDFMatchesStream(t *testing.T) {
	e := Exponential{Epsilon: 1.3, Sensitivity: 2}
	counts := make([]float64, 5000)
	rng := rand.New(rand.NewSource(8))
	for i := range counts {
		counts[i] = float64(1 + rng.Intn(20))
	}
	cases := append(cdfBlockCases([]float64{0, 1, 2, 3, 5, 2.5, 0.25}), cdfBlockCase{"integer-nnz=5000", counts})
	for _, tc := range cases {
		noTail, err := e.SparseCDF(SparseVec{Val: tc.val, N: len(tc.val)})
		if err != nil {
			t.Fatal(err)
		}
		// A tail whose mass about equals the support's, so both stages of
		// the draw are exercised (capped where the tail weight underflows).
		balanced := int(min(noTail.Total/noTail.TailWeight, 1e9))
		for _, tail := range []int{3, balanced} {
			t.Run(fmt.Sprintf("%s/tail=%d", tc.name, tail), func(t *testing.T) {
				s := SparseVec{Val: tc.val, N: len(tc.val) + tail}
				scdf, err := e.SparseCDF(s)
				if err != nil {
					t.Fatal(err)
				}
				var coded *SparseCDF
				if code, levels, ok := levelCode(tc.val); ok {
					if coded, err = e.SparseCDF(SparseVec{Code: code, Val: levels, N: s.N}); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(coded.Blocks, scdf.Blocks) || coded.Total != scdf.Total {
						t.Fatalf("coded CDF sums differ from the per-entry CDF's")
					}
				}
				streamRNG := rand.New(rand.NewSource(5))
				cachedRNG := rand.New(rand.NewSource(5))
				codedRNG := rand.New(rand.NewSource(5))
				tails := 0
				for i := 0; i < 1000; i++ {
					want, err := drawStream(e, s, streamRNG)
					if err != nil {
						t.Fatal(err)
					}
					if got := SampleSparseCDF(scdf, cachedRNG); got != want {
						t.Fatalf("draw %d: streamed %+v vs cached %+v", i, want, got)
					}
					if coded != nil {
						if got := SampleSparseCDF(coded, codedRNG); got != want {
							t.Fatalf("draw %d: streamed %+v vs level-coded cached %+v", i, want, got)
						}
					}
					if want.IsTail() {
						tails++
					}
				}
				if tail == balanced && scdf.TailWeight > 0 && tails == 0 {
					t.Fatalf("no tail picks in 1000 draws; the balanced tail no longer balances")
				}
			})
		}
	}
}

// chiSquaredTwoSample compares two equally-sized empirical samples; under
// the null (same distribution) the statistic is chi-squared with cells-1
// degrees of freedom. Used for mechanisms without a closed dense form
// (Laplace noisy-max).
func chiSquaredTwoSample(t *testing.T, a, b []int) float64 {
	t.Helper()
	stat := 0.0
	for i := range a {
		n := float64(a[i] + b[i])
		if n < 10 {
			t.Fatalf("cell %d has only %0.f samples; pick a larger trial count", i, n)
		}
		d := float64(a[i] - b[i])
		stat += d * d / n
	}
	return stat
}

// TestLaplaceSparseMatchesDenseEmpirically: the sparse noisy-max (support
// noise + closed-form max of the m-variate zero tail) must match the dense
// noisy argmax in distribution. Laplace has no closed form for n > 2, so
// this is a seeded two-sample chi-squared.
func TestLaplaceSparseMatchesDenseEmpirically(t *testing.T) {
	s := SparseVec{Val: []float64{2, 1, 1}, N: 40}
	pos := []int{4, 20, 33}
	u := expandSparse(t, s, pos)
	l := Laplace{Epsilon: 1, Sensitivity: 1}
	const trials = 150000
	cells := len(s.Val) + 1
	dense := make([]int, cells)
	sparse := make([]int, cells)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < trials; i++ {
		d := denseLaplace(l, u, rng)
		cell := cells - 1
		for si, p := range pos {
			if p == d {
				cell = si
				break
			}
		}
		dense[cell]++
	}
	rng = rand.New(rand.NewSource(17))
	for i := 0; i < trials; i++ {
		p, err := drawStream(l, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsTail() {
			if p.Tail < 0 || p.Tail >= s.tail() {
				t.Fatalf("tail rank %d outside [0,%d)", p.Tail, s.tail())
			}
			sparse[cells-1]++
		} else {
			sparse[p.Support]++
		}
	}
	stat := chiSquaredTwoSample(t, dense, sparse)
	if crit := chi2Critical999[cells-1]; stat > crit {
		t.Fatalf("sparse Laplace diverges from dense: chi-squared %.3f > %.3f\ndense:  %v\nsparse: %v",
			stat, crit, dense, sparse)
	}
}

// TestSmoothingAndBestSparseDraws: GOF of the smoothing coin + uniform arm,
// and Best's argmax/tie behavior, against the closed sparse form.
func TestSmoothingAndBestSparseDraws(t *testing.T) {
	s := SparseVec{Val: []float64{2, 2, 1}, N: 30}
	const trials = 120000
	for _, m := range []closedForm{
		Smoothing{X: 0.55, Base: Best{}},
		Best{},
	} {
		support, tailEach, err := m.ProbabilitiesSparse(s)
		if err != nil {
			t.Fatal(err)
		}
		expected := append(append([]float64{}, support...), tailEach*float64(s.tail()))
		counts := make([]int, len(expected))
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < trials; i++ {
			p, err := drawStream(m, s, rng)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsTail() {
				counts[len(counts)-1]++
			} else {
				counts[p.Support]++
			}
		}
		// Zero-probability cells (Best never picks the tail or a non-max
		// support entry) must be empty and are excluded from the statistic.
		var liveCounts []int
		var liveProbs []float64
		for i, p := range expected {
			if p == 0 {
				if counts[i] != 0 {
					t.Fatalf("%s: %d draws landed in zero-probability cell %d", m.Name(), counts[i], i)
				}
				continue
			}
			liveCounts = append(liveCounts, counts[i])
			liveProbs = append(liveProbs, p)
		}
		stat := chiSquared(t, liveCounts, liveProbs, trials)
		if crit := chi2Critical999[len(liveProbs)-1]; stat > crit {
			t.Fatalf("%s sparse draws off closed form: chi-squared %.3f > %.3f\ncounts: %v expected: %v",
				m.Name(), stat, crit, counts, expected)
		}
	}
}

// TestTopKSparseStructure checks sparse top-k invariants: k picks, all
// distinct (support indices and tail ranks), ranks within the tail.
func TestTopKSparseStructure(t *testing.T) {
	s := SparseVec{Val: []float64{5, 3, 1}, N: 12}
	rng := rand.New(rand.NewSource(2))
	for k := 1; k <= s.N; k++ {
		for name, run := range map[string]func() ([]Pick, error){
			"laplace": func() ([]Pick, error) { return asPicks(TopKLaplaceStream(1, 1, supportStream(s), s.N, k, rng)) },
			"peel":    func() ([]Pick, error) { return asPicks(TopKPeelStream(1, 1, supportStream(s), s.N, k, rng)) },
		} {
			picks, err := run()
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if len(picks) != k {
				t.Fatalf("%s k=%d: got %d picks", name, k, len(picks))
			}
			seenSupport := map[int]bool{}
			seenTail := map[int]bool{}
			for _, p := range picks {
				if p.IsTail() {
					if p.Tail < 0 || p.Tail >= s.tail() {
						t.Fatalf("%s k=%d: tail rank %d outside tail", name, k, p.Tail)
					}
					if seenTail[p.Tail] {
						t.Fatalf("%s k=%d: duplicate tail rank %d", name, k, p.Tail)
					}
					seenTail[p.Tail] = true
				} else {
					if p.Support < 0 || p.Support >= len(s.Val) {
						t.Fatalf("%s k=%d: support index %d out of range", name, k, p.Support)
					}
					if seenSupport[p.Support] {
						t.Fatalf("%s k=%d: duplicate support index %d", name, k, p.Support)
					}
					seenSupport[p.Support] = true
				}
			}
		}
	}
	if _, err := TopKLaplaceStream(1, 1, supportStream(s), s.N, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKPeelStream(1, 1, supportStream(s), s.N, s.N+1, rng); err == nil {
		t.Error("k>N accepted")
	}
}

// TestTopKSparseFirstPickMatchesDense: the marginal law of the first
// element of the released set must match the dense implementation
// (two-sample chi-squared; full-set laws then agree by the shared
// sequential construction).
func TestTopKSparseFirstPickMatchesDense(t *testing.T) {
	s := SparseVec{Val: []float64{4, 2}, N: 25}
	pos := []int{3, 11}
	u := expandSparse(t, s, pos)
	const trials = 60000
	const k = 3
	for name, pair := range map[string]struct {
		dense  func(rng *rand.Rand) int
		sparse func(rng *rand.Rand) (Pick, error)
	}{
		"laplace": {
			dense: func(rng *rand.Rand) int { return denseTopKLaplace(1, 1, u, k, rng)[0] },
			sparse: func(rng *rand.Rand) (Pick, error) {
				picks, err := asPicks(TopKLaplaceStream(1, 1, supportStream(s), s.N, k, rng))
				if err != nil {
					return Pick{}, err
				}
				return picks[0], nil
			},
		},
		"peel": {
			dense: func(rng *rand.Rand) int { return denseTopKPeel(1, 1, u, k, rng)[0] },
			sparse: func(rng *rand.Rand) (Pick, error) {
				picks, err := asPicks(TopKPeelStream(1, 1, supportStream(s), s.N, k, rng))
				if err != nil {
					return Pick{}, err
				}
				return picks[0], nil
			},
		},
	} {
		cells := len(s.Val) + 1
		dense := make([]int, cells)
		sparse := make([]int, cells)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < trials; i++ {
			d := pair.dense(rng)
			cell := cells - 1
			for si, p := range pos {
				if p == d {
					cell = si
					break
				}
			}
			dense[cell]++
		}
		rng = rand.New(rand.NewSource(29))
		for i := 0; i < trials; i++ {
			p, err := pair.sparse(rng)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsTail() {
				sparse[cells-1]++
			} else {
				sparse[p.Support]++
			}
		}
		stat := chiSquaredTwoSample(t, dense, sparse)
		if crit := chi2Critical999[cells-1]; stat > crit {
			t.Fatalf("%s: sparse top-k first pick diverges: chi-squared %.3f > %.3f\ndense:  %v\nsparse: %v",
				name, stat, crit, dense, sparse)
		}
	}
}

func TestSparseValidation(t *testing.T) {
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	rng := rand.New(rand.NewSource(1))
	if _, err := drawStream(e, SparseVec{N: 0}, rng); err == nil {
		t.Error("empty sparse vector accepted")
	}
	if _, err := drawStream(e, SparseVec{Val: []float64{1, 2}, N: 1}, rng); err == nil {
		t.Error("oversized support accepted")
	}
	if _, err := drawStream(e, SparseVec{Val: []float64{-1}, N: 4}, rng); err == nil {
		t.Error("negative utility accepted")
	}
	if _, err := drawStream(Exponential{Epsilon: 0, Sensitivity: 1}, SparseVec{Val: []float64{1}, N: 2}, rng); err == nil {
		t.Error("zero epsilon accepted")
	}
}
