// Command recbench regenerates the paper's evaluation: every figure of §7
// (accuracy CDFs under common-neighbors and weighted-paths utilities on the
// Wiki-Vote-like and Twitter-like graphs, and the degree-vs-accuracy plot),
// the ε sweep by degree class and the §7.2 mechanism comparison, rendered
// as text tables or JSON. Each mode is one experiment.Run over a sample of
// targets; -sweep and -compare aggregate its results with experiment.Sweep
// and experiment.Compare.
//
// Usage:
//
//	recbench                      # full suite at reduced scale
//	recbench -figure 1a           # a single figure
//	recbench -scale 1             # paper-size graphs (slow)
//	recbench -laplace 1000        # also evaluate the Laplace mechanism
//	recbench -json -figure 1a     # per-target results and CDFs as JSON
//	recbench -sweep               # mean accuracy and ceiling per (ε, degree class)
//	recbench -compare             # Exponential vs Laplace vs smoothing at ε=1, 1,000 Laplace trials
//	recbench -compare -laplace 50 # the same comparison with 50 Laplace trials
//	recbench -sweep -json         # the sweep's per-target results as JSON
//	recbench -sweep -json -laplace 10  # the same with 10 Laplace trials per target
//	recbench -wiki wiki-Vote.txt  # use the real SNAP dataset when available
package main

import (
	"flag"
	"fmt"
	"os"

	"socialrec/internal/experiment"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

func main() {
	var (
		figure     = flag.String("figure", "", "single figure to run (1a, 1b, 2a, 2b, 2c); '' = all")
		scale      = flag.Int("scale", 10, "dataset shrink factor (1 = paper size)")
		maxTargets = flag.Int("max-targets", 0, "cap on sampled targets per run (0 = figure default)")
		laplace    = flag.Int("laplace", 0, "Laplace Monte-Carlo trials (0 = skip Laplace)")
		seed       = flag.Int64("seed", 1, "random seed")
		wiki       = flag.String("wiki", "", "path to real wiki-Vote.txt (optional)")
		twitter    = flag.String("twitter", "", "path to real twitter edge list (optional)")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of text tables")
		sweep      = flag.Bool("sweep", false, "run the epsilon sweep ablation instead of the figures")
		compare    = flag.Bool("compare", false, "run the §7.2 Laplace-vs-Exponential comparison table")
	)
	flag.Parse()

	opts := experiment.SuiteOptions{
		Scale:         *scale,
		MaxTargets:    *maxTargets,
		LaplaceTrials: *laplace,
		Seed:          *seed,
		WikiVotePath:  *wiki,
		TwitterPath:   *twitter,
	}

	if *sweep {
		if err := runSweep(opts, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if err := runCompare(opts, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
		return
	}

	specs := experiment.PaperFigures()
	if *figure != "" {
		spec, err := experiment.FigureByID(*figure)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
		specs = []experiment.FigureSpec{spec}
	}

	var all []experiment.Result
	for _, spec := range specs {
		results, err := runOne(spec, opts, *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
		all = append(all, results...)
	}
	if *jsonOut {
		if err := experiment.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
	}
}

// runSweep runs the ε sweep on the Wiki-Vote-like graph, with
// opts.LaplaceTrials Laplace trials per target (none when 0), and prints
// its per-(ε, degree class) table, or with jsonOut the per-target results.
func runSweep(opts experiment.SuiteOptions, jsonOut bool) error {
	loaded, err := opts.LoadDataset("wiki-vote")
	if err != nil {
		return err
	}
	results, err := experiment.Run(loaded.Graph, experiment.Config{
		Name:           "wiki-vote",
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{0.1, 0.25, 0.5, 1, 2, 3, 5},
		TargetFraction: 0.10,
		MaxTargets:     opts.MaxTargets,
		LaplaceTrials:  opts.LaplaceTrials,
		Seed:           opts.Seed,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return experiment.WriteJSON(os.Stdout, results)
	}
	points := experiment.Sweep(results, experiment.DefaultDegreeClasses())
	title := fmt.Sprintf("Epsilon sweep, wiki-vote [%s], common neighbors", loaded.Detail)
	return experiment.WriteSweepTable(os.Stdout, title, points)
}

// runCompare runs the §7.2 comparison at ε=1 on the Wiki-Vote-like graph
// with opts.LaplaceTrials Laplace trials per target (the paper's 1,000 when
// unset) and prints its table, or with jsonOut the per-target results.
func runCompare(opts experiment.SuiteOptions, jsonOut bool) error {
	loaded, err := opts.LoadDataset("wiki-vote")
	if err != nil {
		return err
	}
	maxTargets := opts.MaxTargets
	if maxTargets == 0 {
		maxTargets = 30 // Laplace Monte-Carlo is the expensive part
	}
	trials := opts.LaplaceTrials
	if trials <= 0 {
		trials = mechanism.DefaultLaplaceTrials
	}
	results, err := experiment.Run(loaded.Graph, experiment.Config{
		Name:           "wiki-vote",
		Utility:        utility.CommonNeighbors{},
		Epsilons:       []float64{1},
		TargetFraction: 0.10,
		MaxTargets:     maxTargets,
		LaplaceTrials:  trials,
		Seed:           opts.Seed,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return experiment.WriteJSON(os.Stdout, results)
	}
	sum := experiment.Compare(results[0])
	title := fmt.Sprintf("Exponential vs Laplace vs Smoothing (§7.2), wiki-vote [%s], eps=1", loaded.Detail)
	return experiment.WriteCompareTable(os.Stdout, title, sum, 20)
}

func runOne(spec experiment.FigureSpec, opts experiment.SuiteOptions, jsonOut bool) ([]experiment.Result, error) {
	loaded, err := opts.LoadDataset(spec.Dataset)
	if err != nil {
		return nil, err
	}
	results, err := experiment.RunFigure(loaded.Graph, spec, opts)
	if err != nil {
		return nil, err
	}
	if jsonOut {
		return results, nil
	}
	fmt.Printf("== dataset %s: %s\n   %s\n",
		spec.Dataset, loaded.Source, graph.ComputeStats(loaded.Graph))
	if err := experiment.WriteFigure(os.Stdout, spec, results); err != nil {
		return nil, err
	}
	for _, r := range results {
		fmt.Println(r.Summary())
	}
	fmt.Println()
	return results, nil
}
