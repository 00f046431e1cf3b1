package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"socialrec"
	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

// workload is one traffic mix against one server configuration. The
// nominal and high offered rates are fixed numbers chosen once from each
// workload's measured closed-loop capacity on a 2-core host (see
// README.md); they are part of the benchmark's definition, not tuned per
// run, so a faster program shows lower latency at the same load.
type workload struct {
	name string
	why  string
	// weightedPaths selects the weighted-paths utility (γ = gamma);
	// otherwise common neighbours.
	weightedPaths bool
	gamma         float64
	cache         bool // utility-vector cache at socialrec.DefaultCacheSize
	budget        bool // per-principal budget with a cap no run reaches
	live          bool // live mutations, delta invalidation and a WAL
	zipf          bool // Zipf(zipfS) targets by degree rank; else uniform
	topKShare     float64
	writeShare    float64
	nominalQPS    float64
	highQPS       float64
	// warmupReqs is a fixed request count, so the cache state reached
	// before measuring depends on the seed only, not on the host's speed.
	warmupReqs int
}

const (
	epsilon = 1.0
	zipfS   = 1.2
	// topK is the list size of the k>1 share of reads.
	topK = 10
	// perPrincipalCap is far above the per-target spend of any run, so
	// the budget layer does all its bookkeeping but never refuses.
	perPrincipalCap = 1e12
	// rebuildEvery is live_mixed's rebuild trigger in pending writes:
	// about what the default 100 ms interval folds at the workload's
	// closed-loop capacity (~200 writes/s).
	rebuildEvery = 20
)

var workloads = []workload{
	{
		name:       "hot_cached",
		why:        "cache hits plus an O(log nnz) CDF draw: HTTP, JSON, RNG split, budget and allocation dominate, the kernel is idle",
		cache:      true,
		budget:     true,
		zipf:       true,
		nominalQPS: 1500,
		highQPS:    4000,
		warmupReqs: 40000,
	},
	{
		name:          "cold_scan",
		why:           "cache and budget off, uniform targets: the weighted-paths kernel, streaming draw, tail resolution and top-k do the work",
		weightedPaths: true,
		gamma:         0.005,
		topKShare:     0.2,
		nominalQPS:    250,
		highQPS:       600,
		warmupReqs:    2000,
	},
	{
		name:       "live_mixed",
		why:        "hot_cached plus 1 in 10 edge inserts: WAL fsync, CSR patch and rebuild, and cache invalidation compete with reads",
		cache:      true,
		budget:     true,
		live:       true,
		zipf:       true,
		writeShare: 0.1,
		nominalQPS: 300,
		highQPS:    600,
		warmupReqs: 3000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) utility() utility.Function {
	if w.weightedPaths {
		return utility.WeightedPaths{Gamma: w.gamma}
	}
	return utility.CommonNeighbors{}
}

// options are the Recommender options of recserve's defaults for this
// workload; walDir is used only when the workload is live.
func (w workload) options(seed int64, walDir string) []socialrec.Option {
	opts := []socialrec.Option{
		socialrec.WithEpsilon(epsilon),
		socialrec.WithMechanism(socialrec.MechanismExponential),
		socialrec.WithUtility(w.utility()),
		socialrec.WithSeed(seed),
	}
	if w.cache {
		opts = append(opts, socialrec.WithCache(socialrec.DefaultCacheSize))
	}
	if w.live {
		// Rebuilds are triggered by count, not by the default 100 ms timer:
		// with a timer, a slower host folds fewer writes per rebuild, runs
		// more rebuilds per request, misses the cache more and slows
		// further, so host noise would be amplified into every figure.
		opts = append(opts,
			socialrec.WithRebuildInterval(time.Hour),
			socialrec.WithMaxPendingDeltas(rebuildEvery),
			socialrec.WithDeltaInvalidation(),
			socialrec.WithWAL(walDir),
			socialrec.WithWALSync(socialrec.FsyncAlways))
	}
	return opts
}

// request is one scheduled operation. A read has k >= 1; a write (edge
// insert from→to) has k == 0.
type request struct {
	due      time.Duration // offset from the phase start (open loop only)
	target   int32
	k        uint8
	from, to int32
}

func (r request) isWrite() bool { return r.k == 0 }

// inputs is everything generated from the seed before timing starts.
type inputs struct {
	g    *graph.Graph
	snap *graph.CSR // the initial graph, for the correctness checks
	// eligible lists targets with at least one positive-utility
	// candidate, ordered by descending degree (ties by ID): Zipf rank i
	// is eligible[i], so the hot set is the best-connected users.
	eligible []int32
	seed     int64
}

func makeInputs(seed int64) (*inputs, error) {
	g, err := gen.WikiVoteLike(distribution.Split(seed, "graph"))
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	snap := g.Snapshot()
	in := &inputs{g: g, snap: snap, eligible: eligibleTargets(snap), seed: seed}
	if len(in.eligible) == 0 {
		return nil, fmt.Errorf("graph has no eligible targets")
	}
	return in, nil
}

// eligibleTargets returns the nodes with a two-hop non-neighbour, i.e. a
// positive common-neighbours (and hence weighted-paths) utility: every
// request to one of them succeeds.
func eligibleTargets(c *graph.CSR) []int32 {
	n := c.NumNodes()
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	var out []int32
	for r := 0; r < n; r++ {
		mark[r] = int32(r)
		for _, u := range c.Out(r) {
			mark[u] = int32(r)
		}
	search:
		for _, u := range c.Out(r) {
			for _, w := range c.Out(int(u)) {
				if mark[w] != int32(r) {
					out = append(out, int32(r))
					break search
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return c.OutDegree(int(out[i])) > c.OutDegree(int(out[j])) })
	return out
}

// targetSampler draws read targets: Zipf over the degree ranking, or
// uniform over the eligible set.
type targetSampler struct {
	eligible []int32
	zipf     *rand.Zipf
	rng      *rand.Rand
}

func (in *inputs) sampler(w workload, label string) *targetSampler {
	rng := distribution.Split(in.seed, label)
	s := &targetSampler{eligible: in.eligible, rng: rng}
	if w.zipf {
		s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(in.eligible)-1))
	}
	return s
}

func (s *targetSampler) next() int32 {
	if s.zipf != nil {
		return s.eligible[s.zipf.Uint64()]
	}
	return s.eligible[s.rng.Intn(len(s.eligible))]
}

// schedule draws n operations of workload w. With qps > 0 arrivals are a
// Poisson process at that rate; otherwise due times are left zero (closed
// loop). label separates the streams of different phases.
func (in *inputs) schedule(w workload, label string, n int, qps float64) []request {
	ts := in.sampler(w, label+".targets")
	rng := distribution.Split(in.seed, label+".mix")
	nodes := in.snap.NumNodes()
	out := make([]request, n)
	var t float64 // seconds
	for i := range out {
		if qps > 0 {
			t += rng.ExpFloat64() / qps
			out[i].due = time.Duration(t * float64(time.Second))
		}
		switch {
		case rng.Float64() < w.writeShare:
			u := rng.Intn(nodes)
			v := rng.Intn(nodes - 1)
			if v >= u {
				v++
			}
			out[i].from, out[i].to = int32(u), int32(v)
		case rng.Float64() < w.topKShare:
			out[i].target, out[i].k = ts.next(), topK
		default:
			out[i].target, out[i].k = ts.next(), 1
		}
	}
	return out
}

// openSchedule covers d of arrivals at qps.
func (in *inputs) openSchedule(w workload, label string, qps float64, d time.Duration) []request {
	return in.schedule(w, label, int(qps*d.Seconds()), qps)
}
