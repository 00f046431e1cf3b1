package socialrec

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"socialrec/internal/budget"
	"socialrec/internal/distribution"
	"socialrec/internal/gen"
)

// Perf guardrails. Each TestGuardrail* runs two arms of one serving path on
// the same seeded inputs and fails when their ratio crosses a fixed
// threshold; none asserts an absolute time. Timed arms run back to back
// several times and the gate reads the median of the per-repetition
// ratios, so host noise lands on both arms of a pair alike. All guardrails
// skip under the race detector, whose instrumentation distorts both time
// and allocations; CI runs them, with the steady-state allocation pins, in
// a separate non-race step:
//
//	go test -run '^(TestGuardrail|Test.*SteadyStateAllocs$)' -count=1 .

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation distorts timings and allocation counts")
	}
}

// medianRatio runs base and test back to back reps times, alternating
// which goes first, and returns the median of test/base over the
// repetitions. Each run starts after a forced GC, so one arm's garbage is
// not collected on the other arm's clock.
func medianRatio(reps int, base, test func() float64) float64 {
	ratios := make([]float64, reps)
	for r := range ratios {
		runtime.GC()
		var b, t float64
		if r%2 == 0 {
			b = base()
			runtime.GC()
			t = test()
		} else {
			t = test()
			runtime.GC()
			b = base()
		}
		ratios[r] = t / b
	}
	slices.Sort(ratios)
	return ratios[reps/2]
}

// seedAccountant replicates the accounting state machine the sharded
// budget manager replaced: every operation takes one global mutex, refunds
// truncate the newest ledger entry, and a poll copies the ledger to count
// calls (what /v1/budget did per request).
type seedAccountant struct {
	mu     sync.Mutex
	total  float64
	spent  float64
	ledger []seedSpend
}

// seedSpend is one entry of seedAccountant's ledger.
type seedSpend struct {
	target, k int
	eps       float64
}

func (a *seedAccountant) charge(target int, eps float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+eps > a.total+1e-12 {
		return false
	}
	a.spent += eps
	a.ledger = append(a.ledger, seedSpend{target: target, k: 1, eps: eps})
	return true
}

func (a *seedAccountant) refundLast(eps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent -= eps
	if n := len(a.ledger); n > 0 {
		a.ledger = a.ledger[:n-1]
	}
}

func (a *seedAccountant) poll() (spent float64, calls int) {
	a.mu.Lock()
	ledger := append([]seedSpend(nil), a.ledger...)
	spent = a.spent
	a.mu.Unlock()
	return spent, len(ledger)
}

// TestGuardrailShardedAccountant: on the serving workload — concurrent
// charges and refunds across many principals, with a budget poll every 512
// charges per goroutine — the sharded budget manager must cost at most
// 1.1x the global-lock accountant it replaced.
func TestGuardrailShardedAccountant(t *testing.T) {
	skipUnderRace(t)
	const (
		principals = 64
		goroutines = 8
		ops        = 20000 // per goroutine
		pollEvery  = 512
		// Budgets far above total spend: this measures accounting
		// overhead, not admission refusals.
		eps   = 1e-9
		limit = 2 * eps * goroutines * ops
	)
	run := func(op func(g, i int), poll func()) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					op(g, i)
					if i%pollEvery == 0 {
						poll()
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / (goroutines * ops)
	}
	keys := make([]string, principals)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%d", i)
	}
	var failed error
	var failMu sync.Mutex
	fail := func(err error) {
		failMu.Lock()
		failed = err
		failMu.Unlock()
	}
	// The arms differ ~15x, far beyond host noise, so three repetitions
	// suffice for the slowest guardrail.
	ratio := medianRatio(3,
		func() float64 {
			seed := &seedAccountant{total: limit}
			return run(func(g, i int) {
				if !seed.charge((g*ops+i)%principals, eps) {
					fail(errors.New("global-lock accountant refused within budget"))
				}
				if i%4 == 0 {
					seed.refundLast(eps)
				}
			}, func() { seed.poll() })
		},
		func() float64 {
			mgr := budget.NewManager(budget.Limits{Global: limit, PerPrincipal: limit})
			return run(func(g, i int) {
				r, err := mgr.Reserve(keys[(g*ops+i)%principals], eps)
				if err != nil {
					fail(err)
					return
				}
				if i%4 == 0 {
					r.Refund()
				}
			}, func() {
				mgr.Global()
				mgr.Principals()
			})
		})
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("sharded/global-lock time: %.3f", ratio)
	if ratio > 1.1 {
		t.Fatalf("sharded manager takes %.2fx the global lock's time, want <= 1.1x", ratio)
	}
}

// TestGuardrailDeltaInvalidationHitRate: on a live graph under steady
// mutation traffic, delta-aware invalidation must keep a strictly higher
// cache hit rate than the full flush. Both arms serve the identical seeded
// workload: warm the whole target domain, then alternate mutation batches
// and synchronous rebuilds with read bursts. The flush arm also adds a node
// before each rebuild: a node addition changes every target's candidate
// count, so it is the one mutation that forces a full flush.
func TestGuardrailDeltaInvalidationHitRate(t *testing.T) {
	skipUnderRace(t)
	const (
		nodes             = 12000
		edges             = 36000
		distinctTargets   = 4096
		rounds            = 12
		readsPerRound     = 256
		mutationsPerRound = 2
	)
	// A flat-degree (Erdős–Rényi) graph: on a heavy-tailed one, a mutation
	// near a hub dooms the hub's whole radius-2 ball, and the measurement
	// becomes a study of hub placement rather than of the policy.
	g, err := gen.ErdosRenyiGNM(nodes, edges, distribution.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(deltaAware bool) float64 {
		rec, err := NewRecommender(g,
			WithEpsilon(1), WithSeed(1),
			// Rebuilds happen only at the explicit Rebuild calls, so both
			// arms swap snapshots at identical workload points.
			WithRebuildInterval(time.Hour),
			WithMaxPendingDeltas(1<<30),
			WithCache(2*distinctTargets))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		targets := make([]int, distinctTargets)
		for i := range targets {
			targets[i] = i
		}
		warmCache(t, rec, targets)
		base, _ := rec.CacheStats()
		// Zipf-Mandelbrot reads (v flattens the head): with a raw Zipf head
		// the full-flush arm re-warms its top targets within a round, and
		// the gap would understate the flush.
		mutRNG := distribution.NewRNG(11)
		zipf := rand.NewZipf(distribution.NewRNG(12), 1.1, 32, distinctTargets-1)
		for round := 0; round < rounds; round++ {
			for m := 0; m < mutationsPerRound; m++ {
				u, v := mutRNG.Intn(nodes), mutRNG.Intn(nodes)
				if u == v {
					continue
				}
				if err := rec.AddEdge(u, v); err != nil {
					// Toggle existing edges off so churn stays balanced.
					if err := rec.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !deltaAware {
				if _, err := rec.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			if err := rec.Rebuild(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < readsPerRound; i++ {
				_, _ = rec.Recommend(int(zipf.Uint64())) // hopeless targets still exercise the cache
			}
		}
		st, _ := rec.CacheStats()
		hits, misses := st.Hits-base.Hits, st.Misses-base.Misses
		return float64(hits) / float64(hits+misses)
	}
	flush, delta := hitRate(false), hitRate(true)
	t.Logf("hit rate: full flush %.3f, delta-aware %.3f", flush, delta)
	if delta <= flush {
		t.Fatalf("delta-aware hit rate %.3f not above full-flush %.3f", delta, flush)
	}
}
