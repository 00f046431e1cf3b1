package experiment

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Mechanism comparison — the §7.2 "Exponential vs Laplace mechanism" table:
// "We verified in all experiments that the Laplace mechanism achieves nearly
// identical accuracy as the Exponential mechanism." Compare quantifies that
// claim per target and in aggregate, and also scores the Appendix F
// smoothing mechanism at the same ε for contrast.

// CompareRow is one target's accuracies under each mechanism.
type CompareRow struct {
	Node        int
	Degree      int
	Exponential float64
	Laplace     float64
	Smoothing   float64
	Gap         float64 // |Exponential - Laplace|
}

// CompareSummary aggregates a comparison run.
type CompareSummary struct {
	Epsilon     float64
	UtilityName string
	Rows        []CompareRow
	MeanGap     float64
	MaxGap      float64
	// MeanExponential / MeanLaplace / MeanSmoothing are the mean accuracies.
	MeanExponential float64
	MeanLaplace     float64
	MeanSmoothing   float64
}

// Compare tabulates the three private mechanisms over the targets of one
// Result. The Result should come from a Run with LaplaceTrials > 0; without
// Laplace estimates the Laplace mean and the mean gap are NaN.
func Compare(r Result) CompareSummary {
	sum := CompareSummary{Epsilon: r.Epsilon, UtilityName: r.UtilityName}
	for _, t := range r.Targets {
		sum.Rows = append(sum.Rows, CompareRow{
			Node: t.Node, Degree: t.Degree,
			Exponential: t.Exponential, Laplace: t.Laplace, Smoothing: t.Smoothing,
			Gap: math.Abs(t.Exponential - t.Laplace),
		})
	}
	n := float64(len(sum.Rows))
	for _, row := range sum.Rows {
		sum.MeanGap += row.Gap / n
		sum.MeanExponential += row.Exponential / n
		sum.MeanLaplace += row.Laplace / n
		sum.MeanSmoothing += row.Smoothing / n
		if row.Gap > sum.MaxGap {
			sum.MaxGap = row.Gap
		}
	}
	slices.SortFunc(sum.Rows, func(a, b CompareRow) int { return a.Degree - b.Degree })
	return sum
}

// WriteCompareTable renders the comparison with per-target rows and the
// aggregate verdict.
func WriteCompareTable(w io.Writer, title string, s CompareSummary, maxRows int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %-8s %-14s %-12s %-12s %-8s\n",
		"node", "degree", "exponential", "laplace", "smoothing", "gap"); err != nil {
		return err
	}
	rows := s.Rows
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-8d %-8d %-14.4f %-12.4f %-12.4f %-8.4f\n",
			r.Node, r.Degree, r.Exponential, r.Laplace, r.Smoothing, r.Gap); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "targets=%d  mean: exp %.4f  lap %.4f  smooth %.4f  |gap| mean %.4f max %.4f\n",
		len(s.Rows), s.MeanExponential, s.MeanLaplace, s.MeanSmoothing, s.MeanGap, s.MaxGap)
	return err
}
