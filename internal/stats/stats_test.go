package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSumEmptyAndSingle(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %g", got)
	}
	if got := Sum([]float64{3.5}); got != 3.5 {
		t.Errorf("Sum([3.5]) = %g", got)
	}
}

func TestSumCompensated(t *testing.T) {
	// 1 + 1e-16 added 1e5 times loses the small term under naive summation
	// in some orders; Kahan keeps it.
	xs := make([]float64, 100001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-11
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Sum = %.20f, want %.20f", got, want)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %g, %v", m, err)
	}
	v, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	if want := 32.0 / 7; math.Abs(v-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, want)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	if _, err := Variance([]float64{1}); err != ErrEmpty {
		t.Errorf("want ErrEmpty for single-element variance, got %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g (%v)", c.q, got, c.want, err)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("want error for q>1")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("want ErrEmpty")
	}
	if got, _ := Quantile([]float64{9}, 0.5); got != 9 {
		t.Errorf("Quantile single = %g", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestFractionLE(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.9}
	if got := FractionLE(xs, 0.25); got != 0.5 {
		t.Errorf("FractionLE = %g", got)
	}
	if got := FractionLE(xs, 0.2); got != 0.5 {
		t.Errorf("FractionLE inclusive = %g", got)
	}
	if got := FractionLE(nil, 1); got != 0 {
		t.Errorf("FractionLE(nil) = %g", got)
	}
}

func TestCDFOnGrid(t *testing.T) {
	xs := []float64{0.05, 0.15, 0.15, 0.95}
	pts := CDF(xs, AccuracyGrid())
	if len(pts) != 11 {
		t.Fatalf("got %d points", len(pts))
	}
	// grid 0.0: nothing <= 0; grid 0.1: one value (0.05); grid 0.2: three.
	if pts[0].Fraction != 0 {
		t.Errorf("F(0.0) = %g", pts[0].Fraction)
	}
	if pts[1].Fraction != 0.25 {
		t.Errorf("F(0.1) = %g", pts[1].Fraction)
	}
	if pts[2].Fraction != 0.75 {
		t.Errorf("F(0.2) = %g", pts[2].Fraction)
	}
	if pts[10].Fraction != 1 {
		t.Errorf("F(1.0) = %g", pts[10].Fraction)
	}
}

func TestCDFIncludesEqualValues(t *testing.T) {
	pts := CDF([]float64{0.5}, []float64{0.5})
	if pts[0].Fraction != 1 {
		t.Errorf("value equal to threshold should count: %g", pts[0].Fraction)
	}
}

func TestCDFEmptyInput(t *testing.T) {
	pts := CDF(nil, []float64{0.5})
	if pts[0].Fraction != 0 {
		t.Errorf("empty input should give 0 fraction")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(math.Abs(x), 1))
			}
		}
		pts := CDF(xs, AccuracyGrid())
		for i := 1; i < len(pts); i++ {
			if pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAccuracyGrid(t *testing.T) {
	g := AccuracyGrid()
	if len(g) != 11 || g[0] != 0 || g[10] != 1 {
		t.Errorf("grid = %v", g)
	}
}

func TestGroupedSeries(t *testing.T) {
	g := NewGroupedSeries()
	g.Add(1, 0.2)
	g.Add(1, 0.4)
	g.Add(10, 0.9)
	pts := g.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Key != 1 || math.Abs(pts[0].Mean-0.3) > 1e-12 || pts[0].Count != 2 {
		t.Errorf("bucket 1 = %+v", pts[0])
	}
	if pts[1].Key != 10 || pts[1].Mean != 0.9 || pts[1].Count != 1 {
		t.Errorf("bucket 10 = %+v", pts[1])
	}
}

func TestLogBucket(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 5}, {9, 5},
		{10, 10}, {19, 10}, {20, 20}, {49, 20}, {50, 50}, {99, 50},
		{100, 100}, {500, 500}, {999, 500}, {1000, 1000}, {13181, 10000},
	}
	for _, c := range cases {
		if got := LogBucket(c.in); got != c.want {
			t.Errorf("LogBucket(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLogBucketProperty(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		n := int(raw) + 1
		b := LogBucket(n)
		return b <= n && n < 10*b
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
