// Package stats provides the small numerical toolkit used by the experiment
// harness: compensated summation, descriptive statistics, empirical CDFs on
// the fixed accuracy grid the paper plots (0.0, 0.1, ..., 1.0), quantiles,
// and grouped aggregation for the degree-vs-accuracy figure.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the Kahan-compensated sum of xs. Utility vectors in large
// graphs mix many tiny weighted-path contributions with a few large ones, so
// naive summation loses precision exactly where the accuracy ratios are
// computed.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or an error on empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, _ := Mean(xs)
	var sum, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs)-1), nil
}

// Quantile returns the q-th empirical quantile of xs (q in [0,1]) using
// linear interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile q outside [0,1]")
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// FractionLE returns the fraction of xs that are <= threshold. This is the
// y-axis of the paper's figures: "% of nodes receiving recommendations with
// accuracy <= (1-δ)".
func FractionLE(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X        float64 // threshold value (accuracy 1-δ on the paper's x-axis)
	Fraction float64 // fraction of observations <= X
}

// CDF evaluates the empirical CDF of xs on the given grid of thresholds. The
// grid is copied into the result unchanged.
func CDF(xs []float64, grid []float64) []CDFPoint {
	out := make([]CDFPoint, len(grid))
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	for i, g := range grid {
		// Count of sorted values <= g via binary search.
		n := sort.SearchFloat64s(s, math.Nextafter(g, math.Inf(1)))
		frac := 0.0
		if len(s) > 0 {
			frac = float64(n) / float64(len(s))
		}
		out[i] = CDFPoint{X: g, Fraction: frac}
	}
	return out
}

// AccuracyGrid returns the fixed grid 0.0, 0.1, ..., 1.0 used on the x-axis
// of every accuracy-CDF figure in the paper.
func AccuracyGrid() []float64 {
	grid := make([]float64, 11)
	for i := range grid {
		grid[i] = float64(i) / 10
	}
	return grid
}
