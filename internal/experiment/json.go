package experiment

import (
	"encoding/json"
	"io"
	"math"
)

// jsonResult mirrors Result with NaN-free fields so the output is valid
// JSON (encoding/json rejects NaN); a disabled Laplace evaluation is
// encoded as null.
type jsonResult struct {
	Name        string           `json:"dataset"`
	UtilityName string           `json:"utility"`
	Epsilon     float64          `json:"epsilon"`
	Sensitivity float64          `json:"sensitivity"`
	NumNodes    int              `json:"num_nodes"`
	NumEdges    int              `json:"num_edges"`
	Skipped     int              `json:"skipped_targets"`
	Targets     []jsonTarget     `json:"targets"`
	CDF         map[string][]cdf `json:"cdf"`
}

type jsonTarget struct {
	Node        int      `json:"node"`
	Degree      int      `json:"degree"`
	UMax        float64  `json:"u_max"`
	T           int      `json:"t"`
	Exponential float64  `json:"exponential_accuracy"`
	Smoothing   float64  `json:"smoothing_accuracy"`
	Laplace     *float64 `json:"laplace_accuracy"`
	Bound       float64  `json:"bound_accuracy"`
}

type cdf struct {
	Accuracy float64 `json:"accuracy"`
	Fraction float64 `json:"fraction"`
}

// WriteJSON encodes results as a JSON array with per-series CDFs attached,
// for consumption by external plotting tools.
func WriteJSON(w io.Writer, results []Result) error {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		jr := jsonResult{
			Name:        r.Name,
			UtilityName: r.UtilityName,
			Epsilon:     r.Epsilon,
			Sensitivity: r.Sensitivity,
			NumNodes:    r.NumNodes,
			NumEdges:    r.NumEdges,
			Skipped:     r.Skipped,
			CDF:         map[string][]cdf{},
		}
		for _, t := range r.Targets {
			jt := jsonTarget{
				Node: t.Node, Degree: t.Degree, UMax: t.UMax, T: t.T,
				Exponential: t.Exponential, Smoothing: t.Smoothing, Bound: t.Bound,
			}
			if !math.IsNaN(t.Laplace) {
				v := t.Laplace
				jt.Laplace = &v
			}
			jr.Targets = append(jr.Targets, jt)
		}
		for _, s := range []Series{SeriesExponential, SeriesLaplace, SeriesBound} {
			pts := r.CDF(s)
			series := make([]cdf, len(pts))
			for j, p := range pts {
				series[j] = cdf{Accuracy: p.X, Fraction: p.Fraction}
			}
			jr.CDF[s.String()] = series
		}
		out[i] = jr
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
