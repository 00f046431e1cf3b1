package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"socialrec"
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

// checker validates answers against the graph the run started from.
// Workloads only insert edges, so an initial out-neighbour stays a
// neighbour for the whole run and is never a valid recommendation.
type checker struct {
	snap *graph.CSR
	eps  float64
}

// read checks one 2xx recommendation: k distinct in-range nodes, none the
// target or an existing out-neighbour, for the requested target, at the
// configured ε.
func (c *checker) read(target, k, respTarget int, nodes []int32, eps float64) error {
	if respTarget != target {
		return fmt.Errorf("answer names target %d, asked %d", respTarget, target)
	}
	if len(nodes) != k {
		return fmt.Errorf("target %d: %d nodes, asked k=%d", target, len(nodes), k)
	}
	for i, v := range nodes {
		switch {
		case v < 0 || int(v) >= c.snap.NumNodes():
			return fmt.Errorf("target %d: node %d out of range", target, v)
		case int(v) == target:
			return fmt.Errorf("target %d: recommended itself", target)
		case c.snap.HasEdge(target, int(v)):
			return fmt.Errorf("target %d: node %d is already a neighbour", target, v)
		}
		for _, u := range nodes[:i] {
			if u == v {
				return fmt.Errorf("target %d: node %d listed twice", target, v)
			}
		}
	}
	if eps != c.eps {
		return fmt.Errorf("target %d: epsilon_spent %g, configured %g", target, eps, c.eps)
	}
	return nil
}

// failure reports why request i of p counts as an error, or nil. A
// write's 409 (duplicate edge) is an answer; any other non-2xx status,
// transport error or undecodable body is an error.
func (c *checker) failure(p *phase, i int) error {
	r := p.reqs[i]
	st := int(p.status[i])
	switch {
	case st == 0:
		return fmt.Errorf("request %d: transport error", i)
	case st < 0:
		return fmt.Errorf("request %d: undecodable body", i)
	case r.isWrite():
		if st != http.StatusCreated && st != http.StatusConflict {
			return fmt.Errorf("edge insert %d->%d: status %d", r.from, r.to, st)
		}
		return nil
	case st != http.StatusOK:
		return fmt.Errorf("target %d: status %d", r.target, st)
	}
	return c.read(int(r.target), int(r.k), int(p.respTarget[i]), p.nodes[i*topK:i*topK+int(p.nn[i])], p.epsSpent[i])
}

// answer is one k=1 recommendation.
type answer struct{ target, node int32 }

// k1Answers collects p's successful k=1 answers.
func k1Answers(p *phase) []answer {
	var out []answer
	for i, r := range p.reqs {
		if p.ran(i) && r.k == 1 && p.status[i] == http.StatusOK && p.nn[i] == 1 {
			out = append(out, answer{r.target, p.nodes[i*topK]})
		}
	}
	return out
}

// accuracyDelta is the false-alarm probability allowed to each
// Monte-Carlo check below.
const accuracyDelta = 1e-9

// accuracyReport is the mechanism check over a set of k=1 answers.
type accuracyReport struct {
	n        int
	mean     float64 // realised accuracy u(picked)/u_max, the paper's Definition 2
	expected float64 // mean exact Recommender.ExpectedAccuracy over the same targets
	bound    float64 // Bernstein deviation bound on |mean-expected| at accuracyDelta
	tailFrac float64 // share of picks with zero utility
	errs     []error
}

// targetOracle is the exact per-target truth an answer is scored against.
type targetOracle struct {
	idx      []int32
	val      []float64
	umax     float64
	expected float64
	ceiling  float64
	err      error
}

func (o *targetOracle) utility(node int32) float64 {
	j := sort.Search(len(o.idx), func(j int) bool { return o.idx[j] >= node })
	if j < len(o.idx) && o.idx[j] == node {
		return o.val[j]
	}
	return 0
}

// checkAccuracy scores answers against an oracle Recommender built on g
// (the graph that served them) with the workload's utility and ε:
//   - every target's exact expected accuracy is at most its Corollary 1
//     ceiling (Recommender.AccuracyCeiling);
//   - no target's realised accuracy exceeds its ceiling by more than a
//     Chernoff-Hoeffding bound for its answer count allows;
//   - the realised mean lies within a Bernstein bound of the mean exact
//     expected accuracy.
//
// Each check's false-alarm probability is at most accuracyDelta.
func checkAccuracy(g *graph.Graph, u utility.Function, eps float64, answers []answer, workers int) (accuracyReport, error) {
	rep := accuracyReport{n: len(answers)}
	if len(answers) == 0 {
		return rep, fmt.Errorf("no k=1 answers to score")
	}
	oracles := map[int32]*targetOracle{}
	var targets []int32
	for _, a := range answers {
		if oracles[a.target] == nil {
			oracles[a.target] = &targetOracle{}
			targets = append(targets, a.target)
		}
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithUtility(u), socialrec.WithEpsilon(eps),
		socialrec.WithMechanism(socialrec.MechanismExponential), socialrec.WithCache(len(targets)))
	if err != nil {
		return rep, fmt.Errorf("oracle recommender: %w", err)
	}
	defer rec.Close()
	snap := g.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(targets); j += workers {
				o := oracles[targets[j]]
				t := int(targets[j])
				if o.idx, o.val, o.err = u.Sparse(snap, t); o.err != nil {
					continue
				}
				for _, v := range o.val {
					o.umax = max(o.umax, v)
				}
				if o.expected, o.err = rec.ExpectedAccuracy(t); o.err != nil {
					continue
				}
				o.ceiling, o.err = rec.AccuracyCeiling(t)
			}
		}()
	}
	wg.Wait()

	type agg struct {
		sum float64
		n   int
	}
	per := map[int32]*agg{}
	var sum, expSum, variance float64
	tails := 0
	for _, a := range answers {
		o := oracles[a.target]
		if o.err != nil {
			return rep, fmt.Errorf("oracle for target %d: %w", a.target, o.err)
		}
		acc := o.utility(a.node) / o.umax
		if acc == 0 {
			tails++
		}
		sum += acc
		expSum += o.expected
		// Var(X) <= mu(1-mu) for any X in [0,1] with mean mu.
		variance += o.expected * (1 - o.expected)
		pa := per[a.target]
		if pa == nil {
			pa = &agg{}
			per[a.target] = pa
		}
		pa.sum += acc
		pa.n++
	}
	n := float64(len(answers))
	rep.mean, rep.expected = sum/n, expSum/n
	rep.tailFrac = float64(tails) / n
	rep.bound = bernsteinBound(variance, accuracyDelta) / n
	if d := math.Abs(rep.mean - rep.expected); d > rep.bound {
		rep.errs = append(rep.errs, fmt.Errorf("realised accuracy %.5f differs from expected %.5f by %.5f > bound %.5f over %d answers",
			rep.mean, rep.expected, d, rep.bound, len(answers)))
	}
	for _, t := range targets {
		o, pa := oracles[t], per[t]
		if o.expected > o.ceiling+1e-9 {
			rep.errs = append(rep.errs, fmt.Errorf("target %d: expected accuracy %.6f above ceiling %.6f", t, o.expected, o.ceiling))
		}
		if p := exceedProb(pa.sum/float64(pa.n), o.ceiling, pa.n); p < accuracyDelta/float64(len(targets)) {
			rep.errs = append(rep.errs, fmt.Errorf("target %d: realised accuracy %.4f over %d answers exceeds ceiling %.4f (p < %.1e)",
				t, pa.sum/float64(pa.n), pa.n, o.ceiling, p))
		}
	}
	return rep, nil
}

// bernsteinBound returns t with P(|S-E[S]| >= t) <= delta for a sum S of
// independent [0,1] variables whose variances sum to at most v.
func bernsteinBound(v, delta float64) float64 {
	l := math.Log(2 / delta)
	return l/3 + math.Sqrt(l*l/9+2*v*l)
}

// exceedProb bounds the probability that the mean of n independent [0,1]
// variables with mean at most mu reaches a (Hoeffding's relative-entropy
// form of the Chernoff bound); 1 when a <= mu.
func exceedProb(a, mu float64, n int) float64 {
	if a <= mu {
		return 1
	}
	if mu <= 0 {
		return 0
	}
	kl := a * math.Log(a/mu)
	if a < 1 {
		kl += (1 - a) * math.Log((1-a)/(1-mu))
	}
	return math.Exp(-float64(n) * kl)
}
