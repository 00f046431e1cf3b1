// Package experiment implements the paper's evaluation protocol (§7.1):
// sample target nodes uniformly at random, take each target's sparse
// utility support (the positive utilities of its candidates, every node
// except the target and the nodes it already links to; the rest hold 0),
// evaluate the expected accuracy of the Exponential and smoothing
// mechanisms in closed form and of the Laplace mechanism by Monte-Carlo
// trials streamed over that support, compute the Corollary 1 theoretical
// ceiling with the exact per-target rewiring count t, and aggregate
// everything into the accuracy CDFs, degree series, ε sweep and mechanism
// comparison the figures and tables report.
//
// Run evaluates each sampled target once, at every ε, on a worker pool.
// Each target's Laplace trials draw from their own RNG, split from the
// seed by node ID, so results do not depend on how the pool schedules the
// targets. Sweep and Compare only aggregate Run's results.
package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"socialrec/internal/bounds"
	"socialrec/internal/distribution"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stats"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

// Config controls one experiment run over a single graph and utility
// function, possibly at several privacy levels.
type Config struct {
	// Name labels the run in reports (e.g. "wiki-vote").
	Name string
	// Utility is the link-analysis utility function under test.
	Utility utility.Function
	// Epsilons are the privacy levels to evaluate (the paper uses 0.5/1 on
	// Wiki-Vote and 1/3 on Twitter).
	Epsilons []float64
	// TargetFraction of nodes is sampled uniformly as recommendation
	// targets (0.1 for Wiki-Vote, 0.01 for Twitter in the paper).
	TargetFraction float64
	// MaxTargets caps the sample for fast runs; 0 means no cap.
	MaxTargets int
	// LaplaceTrials sets the Monte-Carlo trial count for the Laplace
	// mechanism; 0 disables Laplace evaluation (the paper verified
	// Laplace ≈ Exponential and then reports Exponential, §7.2).
	LaplaceTrials int
	// Seed makes target sampling and Laplace noise deterministic.
	Seed int64
}

// TargetResult is the evaluation of one (target, ε) pair.
type TargetResult struct {
	Node        int     // target node ID
	Degree      int     // out-degree d_r of the target
	UMax        float64 // maximum utility among candidates
	T           int     // exact rewiring count for Corollary 1
	Exponential float64 // exact expected accuracy of A_E(ε)
	Smoothing   float64 // exact expected accuracy of A_S(x) at x for ε (Appendix F)
	Laplace     float64 // Monte-Carlo accuracy of A_L(ε); NaN if disabled
	Bound       float64 // Corollary 1 accuracy ceiling
}

// Result is one (graph, utility, ε) evaluation across all sampled targets.
type Result struct {
	Name        string
	UtilityName string
	Epsilon     float64
	Sensitivity float64
	NumNodes    int
	NumEdges    int
	Skipped     int // targets omitted for having no positive-utility candidate
	Targets     []TargetResult
}

// Errors returned by Run.
var (
	ErrConfig  = errors.New("experiment: invalid config")
	ErrNoNodes = errors.New("experiment: graph has no nodes")
)

// Run executes the experiment on g.
func Run(g *graph.Graph, cfg Config) ([]Result, error) {
	if cfg.Utility == nil || len(cfg.Epsilons) == 0 {
		return nil, fmt.Errorf("%w: utility and epsilons are required", ErrConfig)
	}
	if !(cfg.TargetFraction > 0 && cfg.TargetFraction <= 1) {
		return nil, fmt.Errorf("%w: target fraction %g outside (0,1]", ErrConfig, cfg.TargetFraction)
	}
	for _, eps := range cfg.Epsilons {
		if !(eps > 0) {
			return nil, fmt.Errorf("%w: epsilon %g must be positive", ErrConfig, eps)
		}
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrNoNodes
	}

	snap := g.Snapshot()
	sens := cfg.Utility.Sensitivity(snap)
	targets := SampleTargets(n, cfg.TargetFraction, cfg.MaxTargets, distribution.Split(cfg.Seed, "targets"))

	results := make([]Result, len(cfg.Epsilons))
	for i, eps := range cfg.Epsilons {
		results[i] = Result{
			Name:        cfg.Name,
			UtilityName: cfg.Utility.Name(),
			Epsilon:     eps,
			Sensitivity: sens,
			NumNodes:    n,
			NumEdges:    g.NumEdges(),
		}
	}

	evals := parallelMap(len(targets), func(j int) targetEval {
		trs, err := evaluateTarget(snap, cfg, sens, targets[j])
		return targetEval{trs, err}
	})
	for _, ev := range evals {
		if ev.err != nil {
			return nil, ev.err
		}
		if ev.trs == nil {
			// §7.1: omit targets with no non-zero utility recommendation.
			for i := range results {
				results[i].Skipped++
			}
			continue
		}
		for i := range results {
			results[i].Targets = append(results[i].Targets, ev.trs[i])
		}
	}
	return results, nil
}

// targetEval is one target's results, one per ε of the config.
type targetEval struct {
	trs []TargetResult
	err error
}

// evaluateTarget evaluates target r at every ε of cfg. It returns nil
// results when r has no positive-utility candidate.
func evaluateTarget(snap utility.View, cfg Config, sens float64, r int) ([]TargetResult, error) {
	idx, val, err := cfg.Utility.Sparse(snap, r)
	if err != nil {
		return nil, err
	}
	umax := utility.Max(val)
	if umax == 0 {
		return nil, nil
	}
	degree := snap.OutDegree(r)
	t := cfg.Utility.RewireCount(umax, degree)
	sv := mechanism.SparseVec{Val: val, N: utility.CandidateCount(snap, r)}
	// One Laplace RNG per target, keyed by node ID, so a result does not
	// depend on which worker evaluates the target or when.
	var lapRNG *rand.Rand
	if cfg.LaplaceTrials > 0 {
		lapRNG = distribution.SplitN(cfg.Seed, "laplace", r)
	}

	out := make([]TargetResult, len(cfg.Epsilons))
	for i, eps := range cfg.Epsilons {
		tr := TargetResult{Node: r, Degree: degree, UMax: umax, T: t, Laplace: math.NaN()}
		tr.Exponential, err = mechanism.ExpectedAccuracySparse(mechanism.Exponential{Epsilon: eps, Sensitivity: sens}, sv)
		if err != nil {
			return nil, fmt.Errorf("experiment: exponential accuracy for node %d: %w", r, err)
		}
		x, err := mechanism.SmoothingXForEpsilon(eps, sv.N)
		if err != nil {
			return nil, fmt.Errorf("experiment: smoothing x for node %d: %w", r, err)
		}
		tr.Smoothing, err = mechanism.ExpectedAccuracySparse(mechanism.Smoothing{X: x, Base: mechanism.Best{}}, sv)
		if err != nil {
			return nil, fmt.Errorf("experiment: smoothing accuracy for node %d: %w", r, err)
		}
		if lapRNG != nil {
			lap := mechanism.Laplace{Epsilon: eps, Sensitivity: sens}
			tr.Laplace, err = mechanism.MonteCarloAccuracyStream(lap, stream.NewSlice(idx, val), sv.N, cfg.LaplaceTrials, lapRNG)
			if err != nil {
				return nil, fmt.Errorf("experiment: laplace accuracy for node %d: %w", r, err)
			}
		}
		tr.Bound, err = bounds.TightestAccuracyBoundSparse(val, sv.N, eps, t)
		if err != nil {
			return nil, fmt.Errorf("experiment: bound for node %d: %w", r, err)
		}
		out[i] = tr
	}
	return out, nil
}

// SampleTargets draws fraction·n distinct targets uniformly without
// replacement (at least 1, at most maxTargets when maxTargets > 0).
func SampleTargets(n int, fraction float64, maxTargets int, rng *rand.Rand) []int {
	want := int(math.Round(fraction * float64(n)))
	if want < 1 {
		want = 1
	}
	if want > n {
		want = n
	}
	if maxTargets > 0 && want > maxTargets {
		want = maxTargets
	}
	perm := rng.Perm(n)
	targets := append([]int(nil), perm[:want]...)
	return targets
}

// Accuracies extracts one accuracy series from a result.
func (r *Result) Accuracies(series Series) []float64 {
	out := make([]float64, 0, len(r.Targets))
	for _, t := range r.Targets {
		v := t.pick(series)
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Series identifies which accuracy curve to extract.
type Series int

// The three curves every figure can plot.
const (
	SeriesExponential Series = iota
	SeriesLaplace
	SeriesBound
)

// String implements fmt.Stringer.
func (s Series) String() string {
	switch s {
	case SeriesExponential:
		return "Exponential"
	case SeriesLaplace:
		return "Laplace"
	case SeriesBound:
		return "Theor. Bound"
	default:
		return fmt.Sprintf("Series(%d)", int(s))
	}
}

func (t TargetResult) pick(s Series) float64 {
	switch s {
	case SeriesExponential:
		return t.Exponential
	case SeriesLaplace:
		return t.Laplace
	default:
		return t.Bound
	}
}

// CDF returns the accuracy CDF of one series on the paper's 0.0..1.0 grid.
func (r *Result) CDF(series Series) []stats.CDFPoint {
	return stats.CDF(r.Accuracies(series), stats.AccuracyGrid())
}

// DegreeSeries aggregates a series by log-bucketed target degree, backing
// Figure 2(c).
func (r *Result) DegreeSeries(series Series) []stats.GroupPoint {
	g := stats.NewGroupedSeries()
	for _, t := range r.Targets {
		v := t.pick(series)
		if math.IsNaN(v) {
			continue
		}
		g.Add(stats.LogBucket(t.Degree), v)
	}
	return g.Points()
}
