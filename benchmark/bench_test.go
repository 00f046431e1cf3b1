package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"socialrec"
	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and answers every request correctly.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			name := w.name + "/untraced"
			if traced {
				want, name = s.PerLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(config{w: w, seed: 1, seconds: 1, trace: traced, workdir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				got := rep.res.Metrics
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", m.Name, v.Value)
					}
				}
				if rep.res.Attempted == 0 || rep.res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.res.Attempted, rep.res.Failed)
				}
				for _, p := range rep.problems {
					// A one-second run on a loaded host, or under the race
					// detector, can overload the generator; that run is
					// reported invalid, which is not a wrong answer.
					if strings.HasPrefix(p, "invalid run") {
						t.Log(p)
						continue
					}
					t.Error(p)
				}
			})
		}
	}
}

func TestCheckerRejectsPlantedAnswers(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	c := &checker{snap: g.Snapshot(), eps: 1}
	if err := c.read(0, 2, 0, []int32{2, 3}, 1); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for _, tc := range []struct {
		name       string
		k, target  int
		nodes      []int32
		eps        float64
		wantSubstr string
	}{
		{"the target itself", 1, 0, []int32{0}, 1, "itself"},
		{"an existing neighbour", 1, 0, []int32{1}, 1, "neighbour"},
		{"an out-of-range node", 1, 0, []int32{6}, 1, "out of range"},
		{"a negative node", 1, 0, []int32{-1}, 1, "out of range"},
		{"a duplicate in a top-k list", 2, 0, []int32{3, 3}, 1, "twice"},
		{"a short list", 2, 0, []int32{3}, 1, "asked k=2"},
		{"another target", 1, 4, []int32{2}, 1, "asked 4"},
		{"a different epsilon", 1, 0, []int32{2}, 0.5, "epsilon"},
	} {
		err := c.read(tc.target, tc.k, 0, tc.nodes, tc.eps)
		if err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.wantSubstr)
		}
	}
}

// TestAccuracyCheck scores honest draws of the mechanism (accepted) and
// planted answers that always name a target's best candidate, beating its
// Corollary 1 ceiling (rejected).
func TestAccuracyCheck(t *testing.T) {
	g, err := gen.WikiVoteLikeScaled(20, distribution.Split(1, "graph"))
	if err != nil {
		t.Fatal(err)
	}
	// A small ε puts some targets' ceilings well below 1.
	const eps = 0.1
	u := utility.CommonNeighbors{}
	rec, err := socialrec.NewRecommender(g, socialrec.WithUtility(u), socialrec.WithEpsilon(eps), socialrec.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	snap := g.Snapshot()
	targets := eligibleTargets(snap)
	low, lowCeiling := int32(-1), 1.0
	for _, tgt := range targets {
		c, err := rec.AccuracyCeiling(int(tgt))
		if err != nil {
			t.Fatal(err)
		}
		if c < lowCeiling {
			low, lowCeiling = tgt, c
		}
	}
	if lowCeiling > 0.5 {
		t.Fatalf("no target with a ceiling below 0.5 (lowest %.3f)", lowCeiling)
	}

	var honest []answer
	for i := range 4000 {
		tgt := targets[i%len(targets)]
		r, err := rec.RecommendWithRNG(int(tgt), rec.RequestRNG())
		if err != nil {
			t.Fatal(err)
		}
		honest = append(honest, answer{tgt, int32(r.Node)})
	}
	rep, err := checkAccuracy(g, u, eps, honest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.errs) != 0 {
		t.Fatalf("honest draws rejected: %v", rep.errs)
	}

	idx, val, err := u.Sparse(snap, int(low))
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for j := range val {
		if val[j] > val[best] {
			best = j
		}
	}
	planted := append([]answer(nil), honest...)
	for range 200 {
		planted = append(planted, answer{low, idx[best]})
	}
	rep, err = checkAccuracy(g, u, eps, planted, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range rep.errs {
		found = found || strings.Contains(e.Error(), "exceeds ceiling")
	}
	if !found {
		t.Fatalf("answers beating the ceiling of target %d (%.3f) were accepted: %v", low, lowCeiling, rep.errs)
	}
}

func TestExceedProb(t *testing.T) {
	if p := exceedProb(0.1, 0.2, 100); p != 1 {
		t.Errorf("mean below the ceiling: p = %v, want 1", p)
	}
	if p := exceedProb(1, 0.01, 1); math.Abs(p-0.01) > 1e-12 {
		t.Errorf("one perfect answer at ceiling 0.01: p = %v, want 0.01", p)
	}
	if p := exceedProb(1, 0.1, 200); p > 1e-100 {
		t.Errorf("200 perfect answers at ceiling 0.1: p = %v", p)
	}
}
