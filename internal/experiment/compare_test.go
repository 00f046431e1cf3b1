package experiment

import (
	"bytes"
	"strings"
	"testing"

	"socialrec/internal/utility"
)

func TestRunMechanismComparison(t *testing.T) {
	g := testGraph(t)
	sum := Compare(mustRun(t, g, Config{
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{1},
		TargetFraction: 0.1,
		LaplaceTrials:  300,
		Seed:           1,
	})[0])
	if len(sum.Rows) == 0 {
		t.Fatal("no rows")
	}
	// §7.2's claim: Laplace ≈ Exponential.
	if sum.MeanGap > 0.05 {
		t.Errorf("mean |gap| %g too large — mechanisms should be nearly identical", sum.MeanGap)
	}
	// Sanity: means in range and consistent with rows.
	if sum.MeanExponential <= 0 || sum.MeanExponential > 1 {
		t.Errorf("mean exponential %g", sum.MeanExponential)
	}
	for _, r := range sum.Rows {
		if r.Gap < 0 || r.Smoothing < 0 || r.Smoothing > 1 {
			t.Errorf("bad row %+v", r)
		}
	}
}

func TestRunMechanismComparisonSmoothingWorseAtTightEps(t *testing.T) {
	// At ε=0.5 over hundreds of candidates the smoothing mechanism's x is
	// tiny, so it should underperform the exponential mechanism on average.
	g := testGraph(t)
	sum := Compare(mustRun(t, g, Config{
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.5},
		TargetFraction: 0.1,
		LaplaceTrials:  100,
		Seed:           2,
	})[0])
	if sum.MeanSmoothing > sum.MeanExponential+0.05 {
		t.Errorf("smoothing %g should not beat exponential %g at tight eps",
			sum.MeanSmoothing, sum.MeanExponential)
	}
}

func TestWriteCompareTable(t *testing.T) {
	s := CompareSummary{
		Epsilon: 1, UtilityName: "common-neighbors",
		Rows: []CompareRow{
			{Node: 5, Degree: 3, Exponential: 0.4, Laplace: 0.39, Smoothing: 0.1, Gap: 0.01},
			{Node: 9, Degree: 30, Exponential: 0.9, Laplace: 0.91, Smoothing: 0.2, Gap: 0.01},
		},
		MeanGap: 0.01, MaxGap: 0.01,
		MeanExponential: 0.65, MeanLaplace: 0.65, MeanSmoothing: 0.15,
	}
	var buf bytes.Buffer
	if err := WriteCompareTable(&buf, "Compare", s, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Compare") || !strings.Contains(out, "targets=2") {
		t.Errorf("output missing pieces:\n%s", out)
	}
	// maxRows=1 truncates the per-target section to one row (node 5).
	if strings.Contains(out, "\n9 ") {
		t.Errorf("row cap ignored:\n%s", out)
	}
}
