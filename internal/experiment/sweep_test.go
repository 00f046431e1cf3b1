package experiment

import (
	"bytes"
	"strings"
	"testing"

	"socialrec/internal/utility"
)

func TestRunEpsilonSweepBasics(t *testing.T) {
	g := testGraph(t)
	points := Sweep(mustRun(t, g, Config{
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.5, 1, 3},
		TargetFraction: 0.3,
		Seed:           1,
	}), DefaultDegreeClasses())
	if len(points) == 0 {
		t.Fatal("no sweep points")
	}
	for _, p := range points {
		if p.MeanAccuracy < 0 || p.MeanAccuracy > 1 || p.MeanCeiling < 0 || p.MeanCeiling > 1 {
			t.Errorf("out of range: %+v", p)
		}
		if p.MeanAccuracy > p.MeanCeiling+1e-9 {
			t.Errorf("mechanism above ceiling: %+v", p)
		}
		if p.Targets < 1 {
			t.Errorf("empty cell emitted: %+v", p)
		}
	}
}

func TestSweepMonotoneInEpsilonPerClass(t *testing.T) {
	g := testGraph(t)
	points := Sweep(mustRun(t, g, Config{
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.25, 1, 4},
		TargetFraction: 0.3,
		Seed:           2,
	}), DefaultDegreeClasses())
	byClass := map[string][]SweepPoint{}
	for _, p := range points {
		byClass[p.Class] = append(byClass[p.Class], p)
	}
	for class, ps := range byClass {
		for i := 1; i < len(ps); i++ {
			if ps[i].MeanAccuracy < ps[i-1].MeanAccuracy-1e-9 {
				t.Errorf("%s: accuracy fell from %g to %g as eps grew", class, ps[i-1].MeanAccuracy, ps[i].MeanAccuracy)
			}
			if ps[i].MeanCeiling < ps[i-1].MeanCeiling-1e-9 {
				t.Errorf("%s: ceiling fell as eps grew", class)
			}
		}
	}
}

// TestSweepHubsBeatLeaves reproduces the qualitative Figure 2(c) ordering
// within the sweep: at any fixed ε, better-connected classes see weakly
// higher ceilings.
func TestSweepHubsBeatLeaves(t *testing.T) {
	g := testGraph(t)
	points := Sweep(mustRun(t, g, Config{
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.5},
		TargetFraction: 0.5,
		Seed:           3,
	}), DefaultDegreeClasses())
	var leaf, hub *SweepPoint
	for i := range points {
		switch points[i].Class {
		case "leaf (1-3)":
			leaf = &points[i]
		case "hub (51+)":
			hub = &points[i]
		case "mid (11-50)":
			if hub == nil {
				hub = &points[i] // fall back when the sample has no 51+ hub
			}
		}
	}
	if leaf == nil || hub == nil {
		t.Skip("sample lacks both degree extremes")
	}
	if hub.MeanCeiling < leaf.MeanCeiling {
		t.Errorf("hub ceiling %g below leaf ceiling %g", hub.MeanCeiling, leaf.MeanCeiling)
	}
}

func TestWriteSweepTable(t *testing.T) {
	var buf bytes.Buffer
	points := []SweepPoint{
		{Epsilon: 0.5, Class: "leaf (1-3)", Targets: 10, MeanAccuracy: 0.05, MeanCeiling: 0.2, ServiceableAt: 0.1},
	}
	if err := WriteSweepTable(&buf, "Sweep", points); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Sweep", "leaf (1-3)", "0.0500", "10.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
