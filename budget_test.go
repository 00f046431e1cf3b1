package socialrec

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAccountantBasics(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != 3 || a.Spent() != 0 || a.Remaining() != 3 {
		t.Errorf("fresh accountant: total=%g spent=%g remaining=%g", a.Total(), a.Spent(), a.Remaining())
	}
	target := pickTarget(t, g)
	for i := 0; i < 3; i++ {
		if _, err := a.Recommend(target); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if a.Remaining() > 1e-9 {
		t.Errorf("remaining = %g, want 0", a.Remaining())
	}
	if _, err := a.Recommend(target); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("fourth call: want ErrBudgetExhausted, got %v", err)
	}
	if a.Calls() != 3 {
		t.Errorf("Calls() = %d, want 3", a.Calls())
	}
	if st := a.TargetStats(target); st.Spent != 3 || st.Calls != 3 {
		t.Errorf("target stats: %+v", st)
	}
}

func TestAccountantTopKChargesOnce(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 2)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	if _, err := a.RecommendTopK(target, 3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Spent()-1) > 1e-12 {
		t.Errorf("top-k should charge one epsilon, spent %g", a.Spent())
	}
}

func TestAccountantRefundsFailedCalls(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recommend(-1); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("want ErrBadTarget, got %v", err)
	}
	if a.Spent() != 0 {
		t.Errorf("failed call should refund: spent %g", a.Spent())
	}
	if a.Calls() != 0 {
		t.Errorf("failed call should refund: calls %d", a.Calls())
	}
	if st := a.TargetStats(-1); st.Spent != 0 || st.Calls != 0 {
		t.Errorf("refunded target stats: %+v", st)
	}
}

func TestAccountantValidation(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccountant(rec, 1); err == nil {
		t.Error("budget below per-call epsilon accepted")
	}
	if _, err := NewAccountant(nil, 5); err == nil {
		t.Error("nil recommender accepted")
	}
	np, err := NewRecommender(g, NonPrivate())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccountant(np, 5); err == nil {
		t.Error("non-private recommender accepted")
	}
}

// TestAccountantExhaustionBoundary spends exactly to the cap, then checks
// that one more request — by a single ε or by any positive sliver past the
// boundary — fails with ErrBudgetExhausted and leaves the spend intact.
func TestAccountantExhaustionBoundary(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	a, err := NewAccountant(rec, budget)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	for i := 0; i < budget; i++ {
		if _, err := a.Recommend(target); err != nil {
			t.Fatalf("call %d within budget failed: %v", i, err)
		}
	}
	if got := a.Spent(); got != budget {
		t.Fatalf("Spent() = %g after spending exactly the cap", got)
	}
	if got := a.Remaining(); got != 0 {
		t.Fatalf("Remaining() = %g at exhaustion", got)
	}
	// One more: single and top-k requests must both refuse.
	if _, err := a.Recommend(target); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("call past the cap: want ErrBudgetExhausted, got %v", err)
	}
	if _, err := a.RecommendTopK(target, 2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("top-k past the cap: want ErrBudgetExhausted, got %v", err)
	}
	// The refusals must not have touched the spend or the call count.
	if got := a.Spent(); got != budget {
		t.Fatalf("refused calls changed Spent() to %g", got)
	}
	if got := a.Calls(); got != budget {
		t.Fatalf("refused calls changed Calls() to %d", got)
	}
}

// TestAccountantSpendRace hammers the accountant from spenders, top-k
// spenders, and concurrent readers of every accessor; run under -race it
// proves the counters are safe to read mid-flight, and at the end the
// global and per-target counters equal the test's own tally of granted
// calls.
func TestAccountantSpendRace(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64
	a, err := NewAccountant(rec, budget)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)

	var wg sync.WaitGroup
	var granted atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := a.Recommend(target); err == nil {
					granted.Add(1)
				} else if !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := a.RecommendTopK(target, 2); err == nil {
					granted.Add(1)
				} else if !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("unexpected top-k error: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if spent := a.Spent(); spent < 0 || spent > budget+1e-9 {
				t.Errorf("Spent() = %g outside [0, %d]", spent, budget)
				return
			}
			_ = a.Remaining()
			_ = a.Calls()
			_ = a.TargetStats(target)
			_ = a.Total()
		}
	}()
	wg.Wait()

	n := granted.Load()
	if n != budget {
		t.Errorf("granted %d calls on a budget of %d", n, budget)
	}
	checkSpendTally(t, a, map[int]int64{target: n}, 1)
}

// checkSpendTally asserts that the accountant's global counters and every
// tallied target's own scope equal the caller's count of successful calls
// times eps: the charges a serving path admitted and did not refund, no
// more and no fewer, each on its own principal.
func checkSpendTally(t *testing.T, a *Accountant, successes map[int]int64, eps float64) {
	t.Helper()
	var total int64
	for target, n := range successes {
		total += n
		if st := a.TargetStats(target); st.Calls != n || math.Abs(st.Spent-float64(n)*eps) > 1e-9 {
			t.Errorf("target %d: stats %+v, want %d calls spending %g", target, st, n, float64(n)*eps)
		}
	}
	if got := a.Calls(); got != int(total) {
		t.Errorf("Calls() = %d, want %d", got, total)
	}
	if got, want := a.Spent(), float64(total)*eps; math.Abs(got-want) > 1e-9 {
		t.Errorf("Spent() = %g, want %g", got, want)
	}
}

// TestAccountantRefundRaceHammer is the regression test for the refund
// bug: concurrent Recommend/RecommendTopK calls across many principals,
// some failing (out-of-range targets) and refunded, while a checker
// continuously asserts that no principal's charged calls fall below its
// completed successes and that no failing principal keeps a charge. Under
// the old truncate-last refund, a failed call's refund cancelled a
// concurrent success's charge; a refund landing on any principal but its
// own leaves that principal's counters short of the tally.
func TestAccountantRefundRaceHammer(t *testing.T) {
	g, err := GenerateSocialGraph(256, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	// Budgets high enough that nothing exhausts: this test isolates the
	// refund race from admission.
	a, err := NewAccountant(rec, 1e9, PerPrincipalBudget(1e6))
	if err != nil {
		t.Fatal(err)
	}

	// ≥ 64 principals: every valid target is its own principal under the
	// default key, and each failing worker also uses a distinct negative
	// target (its own principal).
	const (
		workers = 8
		ops     = 120
		targets = 96
	)
	var successes [targets]atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				target := (w*ops + i) % targets
				switch i % 3 {
				case 0: // guaranteed failure: out-of-range target, refunded
					if _, err := a.Recommend(-1 - w); !errors.Is(err, ErrBadTarget) {
						t.Errorf("want ErrBadTarget, got %v", err)
						return
					}
					failures.Add(1)
				case 1:
					if _, err := a.Recommend(target); err == nil {
						successes[target].Add(1)
					} else if !errors.Is(err, ErrNoCandidates) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				default:
					if _, err := a.RecommendTopK(target, 2); err == nil {
						successes[target].Add(1)
					} else if !errors.Is(err, ErrNoCandidates) {
						t.Errorf("unexpected top-k error: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// The checker runs while the hammer is live. A success is tallied
	// after its charge lands, and only a failed call's own refund may
	// remove a charge, so reading the tally before the stats must never
	// see a principal charged for fewer calls than it completed. Each
	// failing principal has at most its one in-flight charge.
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for target := range successes {
				done := successes[target].Load()
				if st := a.TargetStats(target); st.Calls < done {
					t.Errorf("target %d charged for %d calls after %d successes", target, st.Calls, done)
					return
				}
			}
			for w := 0; w < workers; w++ {
				if st := a.TargetStats(-1 - w); st.Calls > 1 {
					t.Errorf("failing target %d holds %d charges", -1-w, st.Calls)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	checker.Wait()

	// No charge lost, none double-refunded, none moved to another
	// principal: every scope holds exactly ε per success.
	tally := make(map[int]int64, targets+workers)
	for target := range successes {
		tally[target] = successes[target].Load()
	}
	for w := 0; w < workers; w++ {
		tally[-1-w] = 0
	}
	checkSpendTally(t, a, tally, 1)
	if failures.Load() == 0 {
		t.Error("hammer refunded nothing")
	}
	if a.Principals() < 64 {
		t.Errorf("hammer touched %d principals, want >= 64", a.Principals())
	}
}

// TestAccountantPerPrincipalExhaustion checks the per-principal boundary:
// a principal at its cap is refused with its own key in the error while
// other principals — and the uncapped global scope — keep serving.
func TestAccountantPerPrincipalExhaustion(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 0, PerPrincipalBudget(2)) // no global cap
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(a.Remaining(), 1) {
		t.Errorf("uncapped global Remaining() = %g, want +Inf", a.Remaining())
	}
	target := pickTarget(t, g)
	other := -1
	for v := 0; v < g.NumNodes(); v++ {
		if v != target {
			if _, err := rec.ExpectedAccuracy(v); err == nil {
				other = v
				break
			}
		}
	}
	if other < 0 {
		t.Fatal("no second servable target")
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Recommend(target); err != nil {
			t.Fatalf("call %d within principal budget: %v", i, err)
		}
	}
	_, err = a.Recommend(target)
	var be *BudgetError
	if !errors.Is(err, ErrBudgetExhausted) || !errors.As(err, &be) {
		t.Fatalf("exhausted principal: got %v", err)
	}
	if be.Principal != strconv.Itoa(target) || be.Remaining() != 0 {
		t.Errorf("refusal detail: %+v", be)
	}
	// Independence: the other principal still serves.
	if _, err := a.Recommend(other); err != nil {
		t.Errorf("other principal refused after first exhausted: %v", err)
	}
	// Introspection matches.
	st := a.TargetStats(target)
	if st.Spent != 2 || st.Remaining != 0 || st.Calls != 2 {
		t.Errorf("exhausted target stats: %+v", st)
	}
	if st := a.TargetStats(other); st.Spent != 1 || st.Remaining != 1 {
		t.Errorf("other target stats: %+v", st)
	}
	if a.Principals() != 2 {
		t.Errorf("Principals() = %d, want 2", a.Principals())
	}
}

// TestAccountantGlobalVsPerPrincipal checks that with both caps set, the
// global one binds across principals even when no principal is at its own
// cap.
func TestAccountantGlobalVsPerPrincipal(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 3, PerPrincipalBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	var servable []int
	for v := 0; v < g.NumNodes() && len(servable) < 2; v++ {
		if _, err := rec.ExpectedAccuracy(v); err == nil {
			servable = append(servable, v)
		}
	}
	if len(servable) < 2 {
		t.Fatal("need two servable targets")
	}
	// 2 calls for A (its cap), 1 for B: global cap of 3 reached with B
	// under its own cap.
	for i := 0; i < 2; i++ {
		if _, err := a.Recommend(servable[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Recommend(servable[1]); err != nil {
		t.Fatal(err)
	}
	_, err = a.Recommend(servable[1])
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want budget refusal, got %v", err)
	}
	if be.Principal != "" {
		t.Errorf("global refusal names principal %q", be.Principal)
	}
}

// TestAccountantRemainingClamped is the float-drift regression: charges
// admitted within the 1e-12 tolerance can push the spend a hair past the
// cap, and Remaining() must clamp at 0 instead of reporting the negative
// drift to clients.
func TestAccountantRemainingClamped(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(0.1), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	for i := 0; i < 3; i++ {
		if _, err := a.Recommend(target); err != nil {
			t.Fatalf("call %d within tolerance: %v", i, err)
		}
	}
	// 0.1*3 = 0.30000000000000004 > 0.3: spent exceeds the cap by drift.
	if a.Spent() <= 0.3 {
		t.Skipf("float drift did not materialize: spent %g", a.Spent())
	}
	if got := a.Remaining(); got != 0 {
		t.Errorf("Remaining() = %g, want exactly 0 (never negative)", got)
	}
}

func TestAccountantCallsCounter(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 10)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	if _, err := a.Recommend(target); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recommend(-1); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("want ErrBadTarget, got %v", err)
	}
	if _, err := a.RecommendTopK(target, 2); err != nil {
		t.Fatal(err)
	}
	// The refunded call is excluded, from the global count and from its
	// own principal's.
	checkSpendTally(t, a, map[int]int64{target: 2, -1: 0}, 1)
}

func TestAccountantOptionValidation(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccountant(rec, 0); err == nil {
		t.Error("no budget at all accepted")
	}
	if _, err := NewAccountant(rec, 10, PerPrincipalBudget(0.5)); err == nil {
		t.Error("per-principal budget below per-call epsilon accepted")
	}
	if _, err := NewAccountant(rec, 10, PerPrincipalBudget(-1)); err == nil {
		t.Error("negative per-principal budget accepted")
	}
	a, err := NewAccountant(rec, 0, PerPrincipalBudget(5))
	if err != nil {
		t.Fatalf("per-principal-only accountant: %v", err)
	}
	if a.Total() != 0 || a.PerPrincipalLimit() != 5 {
		t.Errorf("limits = %g/%g", a.Total(), a.PerPrincipalLimit())
	}
}

// TestAccountantDisableLedger checks that the deprecated DisableLedger
// option changes nothing: an accountant built with it makes the same
// admission decisions and reports the same counters as one built without.
func TestAccountantDisableLedger(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 3, DisableLedger())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAccountant(rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	for _, acct := range []*Accountant{a, plain} {
		for i := 0; i < 3; i++ {
			if _, err := acct.Recommend(target); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if _, err := acct.Recommend(target); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("fourth call: want ErrBudgetExhausted, got %v", err)
		}
		if _, err := acct.Recommend(-1); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("refund path must still see exhaustion first, got %v", err)
		}
		if acct.Spent() != 3 || acct.Remaining() != 0 || acct.Calls() != 3 {
			t.Errorf("counters: spent=%g remaining=%g calls=%d", acct.Spent(), acct.Remaining(), acct.Calls())
		}
		if st := acct.TargetStats(target); st.Spent != 3 || st.Calls != 3 {
			t.Errorf("target stats: %+v", st)
		}
	}
}

func TestAccountantConcurrentNeverOverspends(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10
	a, err := NewAccountant(rec, budget)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	var wg sync.WaitGroup
	var mu sync.Mutex
	successes := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := a.Recommend(target); err == nil {
					mu.Lock()
					successes++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if successes != budget {
		t.Errorf("%d successful calls on a budget of %d", successes, budget)
	}
	if a.Spent() > budget+1e-9 {
		t.Errorf("overspent: %g", a.Spent())
	}
}
