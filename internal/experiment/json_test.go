package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"socialrec/internal/utility"
)

func TestWriteJSONRoundTrips(t *testing.T) {
	g := testGraph(t)
	results, err := Run(g, Config{
		Name: "json", Utility: utility.CommonNeighbors{},
		Epsilons: []float64{1}, TargetFraction: 0.05,
		LaplaceTrials: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Dataset  string  `json:"dataset"`
		Utility  string  `json:"utility"`
		Epsilon  float64 `json:"epsilon"`
		NumNodes int     `json:"num_nodes"`
		Targets  []struct {
			Node      int      `json:"node"`
			Smoothing float64  `json:"smoothing_accuracy"`
			Laplace   *float64 `json:"laplace_accuracy"`
			Bound     float64  `json:"bound_accuracy"`
		} `json:"targets"`
		CDF map[string][]struct {
			Accuracy float64 `json:"accuracy"`
			Fraction float64 `json:"fraction"`
		} `json:"cdf"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("got %d results", len(decoded))
	}
	d := decoded[0]
	if d.Dataset != "json" || d.Utility != "common-neighbors" || d.Epsilon != 1 {
		t.Errorf("metadata wrong: %+v", d)
	}
	if len(d.Targets) != len(results[0].Targets) {
		t.Fatalf("target count mismatch")
	}
	for i, tr := range d.Targets {
		if tr.Laplace == nil {
			t.Error("Laplace evaluated but encoded as null")
		}
		if want := results[0].Targets[i].Smoothing; tr.Smoothing != want {
			t.Errorf("target %d: smoothing_accuracy %g, want %g", tr.Node, tr.Smoothing, want)
		}
	}
	if len(d.CDF["Exponential"]) != 11 || len(d.CDF["Theor. Bound"]) != 11 {
		t.Errorf("CDF series missing: %v", d.CDF)
	}
}

func TestWriteJSONEncodesDisabledLaplaceAsNull(t *testing.T) {
	r := Result{
		Name: "x", UtilityName: "u", Epsilon: 1,
		Targets: []TargetResult{{Node: 1, Exponential: 0.5, Laplace: math.NaN(), Bound: 0.9}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Result{r}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"laplace_accuracy": null`)) {
		t.Errorf("NaN Laplace should encode as null:\n%s", buf.String())
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out) != 0 {
		t.Errorf("empty encode wrong: %q, %v", buf.String(), err)
	}
}
