package distribution

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewLaplaceRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewLaplace(0, scale); err == nil {
			t.Errorf("NewLaplace(0, %v): want error", scale)
		}
	}
}

func TestNewLaplaceAccepts(t *testing.T) {
	l, err := NewLaplace(2, 3)
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	if l.Loc != 2 || l.Scale != 3 {
		t.Errorf("got %+v", l)
	}
}

func TestLaplacePDFSymmetry(t *testing.T) {
	l := Laplace{Loc: 1, Scale: 2}
	for _, d := range []float64{0.1, 0.5, 1, 3, 10} {
		left, right := l.PDF(1-d), l.PDF(1+d)
		if math.Abs(left-right) > 1e-15 {
			t.Errorf("PDF asymmetric at ±%g: %g vs %g", d, left, right)
		}
	}
}

func TestLaplacePDFPeak(t *testing.T) {
	l := Laplace{Loc: 0, Scale: 2}
	if got, want := l.PDF(0), 1.0/4; math.Abs(got-want) > 1e-15 {
		t.Errorf("PDF(0) = %g, want %g", got, want)
	}
}

func TestLaplaceCDFEndpoints(t *testing.T) {
	l := Laplace{Loc: 0, Scale: 1}
	if got := l.CDF(0); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("CDF(0) = %g, want 0.5", got)
	}
	if got := l.CDF(-50); got > 1e-20 {
		t.Errorf("CDF(-50) = %g, want ~0", got)
	}
	if got := l.CDF(50); got < 1-1e-20 {
		t.Errorf("CDF(50) = %g, want ~1", got)
	}
}

func TestLaplaceQuantileInvertsCDF(t *testing.T) {
	l := Laplace{Loc: -1, Scale: 0.5}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := l.Quantile(p)
		if got := l.CDF(x); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestLaplaceQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for p=0")
		}
	}()
	Laplace{Loc: 0, Scale: 1}.Quantile(0)
}

func TestLaplaceSampleMoments(t *testing.T) {
	l := Laplace{Loc: 3, Scale: 2}
	rng := NewRNG(42)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := l.Sample(rng)
		sum += x
		sumSq += (x - 3) * (x - 3)
	}
	mean := sum / n
	variance := sumSq / n
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("sample mean %g, want ~3", mean)
	}
	if math.Abs(variance-8) > 0.3 {
		t.Errorf("sample variance %g, want ~8", variance)
	}
}

func TestLaplaceSampleMatchesCDF(t *testing.T) {
	l := Laplace{Loc: 0, Scale: 1}
	rng := NewRNG(7)
	const n = 100000
	thresholds := []float64{-2, -1, 0, 0.5, 1.5}
	counts := make([]int, len(thresholds))
	for i := 0; i < n; i++ {
		x := l.Sample(rng)
		for j, thr := range thresholds {
			if x <= thr {
				counts[j]++
			}
		}
	}
	for j, thr := range thresholds {
		got := float64(counts[j]) / n
		want := l.CDF(thr)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical CDF(%g) = %g, want %g", thr, got, want)
		}
	}
}

func TestLaplaceDiffPDFIntegratesToCDF(t *testing.T) {
	d, err := NewLaplaceDiff(1.5)
	if err != nil {
		t.Fatalf("NewLaplaceDiff: %v", err)
	}
	// Numerically integrate the pdf and compare against the closed-form cdf.
	const step = 1e-3
	integral := 0.0
	x := -30.0
	for x < 2.0 {
		integral += d.PDF(x+step/2) * step
		x += step
	}
	if want := d.CDF(2.0); math.Abs(integral-want) > 1e-3 {
		t.Errorf("∫pdf = %g, CDF(2) = %g", integral, want)
	}
}

func TestLaplaceDiffCDFSymmetry(t *testing.T) {
	d := LaplaceDiff{Scale: 2}
	for _, x := range []float64{0.3, 1, 4} {
		if got := d.CDF(x) + d.CDF(-x); math.Abs(got-1) > 1e-12 {
			t.Errorf("CDF(%g)+CDF(-%g) = %g, want 1", x, x, got)
		}
	}
	if got := d.CDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %g, want 0.5", got)
	}
}

func TestLaplaceDiffSampleMatchesCDF(t *testing.T) {
	d := LaplaceDiff{Scale: 1}
	rng := NewRNG(13)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= 0.7 {
			count++
		}
	}
	got := float64(count) / n
	want := d.CDF(0.7)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical CDF(0.7) = %g, want %g", got, want)
	}
}

func TestLemma3WinProbabilityEqualUtilities(t *testing.T) {
	if got := Lemma3WinProbability(5, 5, 1); math.Abs(got-0.25) > 1e-12 {
		// Δ=0: 1 - 1/2 - 0 = 1/2 ... wait, recompute: 1 - 0.5·e^0 - 0 = 0.5.
		t.Logf("equal-utility win probability %g", got)
	}
	if got := Lemma3WinProbability(5, 5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P[win | Δ=0] = %g, want 0.5", got)
	}
}

func TestLemma3WinProbabilityComplement(t *testing.T) {
	p1 := Lemma3WinProbability(3, 1, 0.8)
	p2 := Lemma3WinProbability(1, 3, 0.8)
	if math.Abs(p1+p2-1) > 1e-12 {
		t.Errorf("probabilities do not complement: %g + %g", p1, p2)
	}
	if p1 <= 0.5 {
		t.Errorf("higher-utility candidate should win with p > 0.5, got %g", p1)
	}
}

func TestLemma3WinProbabilityMatchesMonteCarlo(t *testing.T) {
	const eps = 0.7
	u1, u2 := 4.0, 1.5
	want := Lemma3WinProbability(u1, u2, eps)

	l := Laplace{Loc: 0, Scale: 1 / eps}
	rng := NewRNG(99)
	const n = 400000
	wins := 0
	for i := 0; i < n; i++ {
		if u1+l.Sample(rng) > u2+l.Sample(rng) {
			wins++
		}
	}
	got := float64(wins) / n
	if math.Abs(got-want) > 0.005 {
		t.Errorf("Monte-Carlo win rate %g, Lemma 3 says %g", got, want)
	}
}

func TestLemma3MatchesLaplaceDiffCDF(t *testing.T) {
	// P[u1 + X1 > u2 + X2] = P[X2 - X1 < u1 - u2] = CDF_diff(u1-u2).
	const eps = 1.3
	d := LaplaceDiff{Scale: 1 / eps}
	for _, delta := range []float64{0, 0.2, 1, 2.5, 8} {
		want := d.CDF(delta)
		got := Lemma3WinProbability(delta, 0, eps)
		// CDF is P[diff <= x]; Lemma 3 is strict inequality — identical for
		// continuous distributions.
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("delta=%g: Lemma3 %g vs LaplaceDiff CDF %g", delta, got, want)
		}
	}
}

func TestLemma3PanicsOnBadEpsilon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for eps=0")
		}
	}()
	Lemma3WinProbability(1, 0, 0)
}

func TestLemma3MonotoneInGap(t *testing.T) {
	err := quick.Check(func(a, b uint8) bool {
		g1, g2 := float64(a), float64(a)+float64(b)+0.5
		return Lemma3WinProbability(g2, 0, 1) >= Lemma3WinProbability(g1, 0, 1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestZipfBasics(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1): want error")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10,0): want error")
	}
	z, err := NewZipf(100, 1.5)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	if z.N() != 100 {
		t.Errorf("N = %d", z.N())
	}
	var total float64
	for k := 1; k <= 100; k++ {
		p := z.PMF(k)
		if p <= 0 {
			t.Errorf("PMF(%d) = %g, want positive", k, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("PMF sums to %g", total)
	}
	if z.PMF(0) != 0 || z.PMF(101) != 0 {
		t.Error("PMF outside support should be 0")
	}
}

func TestZipfSampleRangeAndSkew(t *testing.T) {
	z, _ := NewZipf(50, 2)
	rng := NewRNG(5)
	counts := make([]int, 51)
	const n = 50000
	for i := 0; i < n; i++ {
		k := z.Sample(rng)
		if k < 1 || k > 50 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[5] {
		t.Errorf("Zipf counts not decreasing: c1=%d c2=%d c5=%d", counts[1], counts[2], counts[5])
	}
	got1 := float64(counts[1]) / n
	if want := z.PMF(1); math.Abs(got1-want) > 0.01 {
		t.Errorf("empirical PMF(1) = %g, want %g", got1, want)
	}
}

func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	a := SplitSeed(42, "alpha")
	b := SplitSeed(42, "alpha")
	c := SplitSeed(42, "beta")
	d := SplitSeed(43, "alpha")
	if a != b {
		t.Error("SplitSeed not deterministic")
	}
	if a == c {
		t.Error("different labels should yield different seeds")
	}
	if a == d {
		t.Error("different parents should yield different seeds")
	}
}

func TestSplitRNGStreamsIndependent(t *testing.T) {
	r1 := Split(1, "x")
	r2 := Split(1, "y")
	same := 0
	for i := 0; i < 20; i++ {
		if r1.Int63() == r2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams overlap: %d/20 identical draws", same)
	}
}

func TestLaplaceQuantileLogMatchesQuantile(t *testing.T) {
	l := Laplace{Loc: 0.5, Scale: 2}
	for _, p := range []float64{1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9} {
		got := l.QuantileLog(math.Log(p))
		want := l.Quantile(p)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("QuantileLog(log %g) = %g, Quantile = %g", p, got, want)
		}
	}
	// Extreme upper tail: Quantile would round 1-p to 0; QuantileLog must
	// stay finite and increasing.
	a := l.QuantileLog(-1e-14)
	b := l.QuantileLog(-1e-16)
	if math.IsInf(a, 0) || math.IsInf(b, 0) || b <= a {
		t.Errorf("extreme-tail quantiles not finite/increasing: %g, %g", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("QuantileLog(0) did not panic")
		}
	}()
	l.QuantileLog(0)
}

// TestLaplaceSampleMaxMatchesBruteForce compares the closed-form max-of-m
// sample (one inverse-CDF draw through the m-th power of the uniform law)
// against the brute-force maximum of m independent samples, at several
// empirical quantiles.
func TestLaplaceSampleMaxMatchesBruteForce(t *testing.T) {
	l := Laplace{Loc: 0, Scale: 1.5}
	const m = 9
	const n = 100000
	rng := NewRNG(11)
	direct := make([]float64, n)
	for i := range direct {
		direct[i] = l.SampleMax(m, rng)
	}
	brute := make([]float64, n)
	for i := range brute {
		max := math.Inf(-1)
		for j := 0; j < m; j++ {
			if x := l.Sample(rng); x > max {
				max = x
			}
		}
		brute[i] = max
	}
	sort.Float64s(direct)
	sort.Float64s(brute)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		i := int(q * n)
		if math.Abs(direct[i]-brute[i]) > 0.05 {
			t.Errorf("max-of-%d quantile %g: closed form %g vs brute force %g", m, q, direct[i], brute[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SampleMax(0) did not panic")
		}
	}()
	l.SampleMax(0, rng)
}
