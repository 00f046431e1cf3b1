package experiment

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Epsilon sweep: an ablation the paper's figures imply but never plot
// directly — for fixed degree classes, how does mean accuracy (mechanism
// and ceiling) grow with ε? It makes the "crossover" visible: the ε at
// which each connectivity class first becomes serviceable, complementing
// Figure 2(c)'s fixed-ε degree axis.

// DegreeClass is a half-open degree interval [Lo, Hi).
type DegreeClass struct {
	Label  string
	Lo, Hi int
}

// DefaultDegreeClasses splits targets into the paper's qualitative tiers.
func DefaultDegreeClasses() []DegreeClass {
	return []DegreeClass{
		{Label: "leaf (1-3)", Lo: 1, Hi: 4},
		{Label: "low (4-10)", Lo: 4, Hi: 11},
		{Label: "mid (11-50)", Lo: 11, Hi: 51},
		{Label: "hub (51+)", Lo: 51, Hi: 1 << 30},
	}
}

// SweepPoint is one (ε, degree class) cell of the sweep.
type SweepPoint struct {
	Epsilon       float64
	Class         string
	Targets       int
	MeanAccuracy  float64 // exponential mechanism, closed form
	MeanCeiling   float64 // Corollary 1 ceiling with exact t
	ServiceableAt float64 // fraction of class targets with ceiling >= 0.5
}

// Sweep aggregates mean accuracy and ceiling per (ε, degree class) over
// the targets of results, one Result per ε (as Run returns them). A target
// counts in every class whose interval holds its degree, and in none when
// no class does. Points are ordered by ε, then class label; empty cells are
// left out.
func Sweep(results []Result, classes []DegreeClass) []SweepPoint {
	var out []SweepPoint
	for _, r := range results {
		for _, cl := range classes {
			p := SweepPoint{Epsilon: r.Epsilon, Class: cl.Label}
			for _, t := range r.Targets {
				if t.Degree < cl.Lo || t.Degree >= cl.Hi {
					continue
				}
				p.Targets++
				p.MeanAccuracy += t.Exponential
				p.MeanCeiling += t.Bound
				if t.Bound >= 0.5 {
					p.ServiceableAt++
				}
			}
			if p.Targets == 0 {
				continue
			}
			n := float64(p.Targets)
			p.MeanAccuracy /= n
			p.MeanCeiling /= n
			p.ServiceableAt /= n
			out = append(out, p)
		}
	}
	slices.SortStableFunc(out, func(a, b SweepPoint) int {
		if a.Epsilon != b.Epsilon {
			return cmp.Compare(a.Epsilon, b.Epsilon)
		}
		return strings.Compare(a.Class, b.Class)
	})
	return out
}

// WriteSweepTable renders the sweep as an aligned text table.
func WriteSweepTable(w io.Writer, title string, points []SweepPoint) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %-14s %-8s %-12s %-12s %-14s\n",
		"eps", "class", "targets", "mean acc", "mean ceil", "%ceil>=0.5"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-8g %-14s %-8d %-12.4f %-12.4f %-14.1f\n",
			p.Epsilon, p.Class, p.Targets, p.MeanAccuracy, p.MeanCeiling, 100*p.ServiceableAt); err != nil {
			return err
		}
	}
	return nil
}
