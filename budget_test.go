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
	ledger := a.Ledger()
	if len(ledger) != 3 {
		t.Fatalf("ledger has %d entries", len(ledger))
	}
	for _, s := range ledger {
		if s.Target != target || s.K != 1 || s.Epsilon != 1 {
			t.Errorf("ledger entry %+v", s)
		}
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
	if len(a.Ledger()) != 0 {
		t.Errorf("ledger should be empty after refund")
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
// boundary — fails with ErrBudgetExhausted and leaves the ledger intact.
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
	// The refusals must not have touched the ledger or the spend.
	if got := a.Spent(); got != budget {
		t.Fatalf("refused calls changed Spent() to %g", got)
	}
	if got := len(a.Ledger()); got != budget {
		t.Fatalf("refused calls changed ledger length to %d", got)
	}
}

// TestAccountantSpendRace hammers the accountant from spenders, top-k
// spenders, and concurrent readers of every accessor; run under -race it
// proves the mutex covers the ledger and counters, and the spend invariant
// holds under arbitrary interleavings.
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
			_ = a.Ledger()
			_ = a.Total()
		}
	}()
	wg.Wait()

	if got := granted.Load(); got != budget {
		t.Errorf("granted %d calls on a budget of %d", got, budget)
	}
	if spent := a.Spent(); spent != budget {
		t.Errorf("final Spent() = %g, want %d", spent, budget)
	}
	if got := len(a.Ledger()); got != budget {
		t.Errorf("ledger has %d entries, want %d", got, budget)
	}
}

// ledgerInvariant checks, in one atomic observation, that the accountant's
// reported spend equals the sum of its live ledger entries and that its
// O(1) call counter matches the live entry count. This is the invariant
// the old append-then-truncate refund corrupted: a refund racing a
// successful Spend deleted the success's entry instead of its own.
func ledgerInvariant(t *testing.T, a *Accountant) {
	t.Helper()
	a.mu.Lock()
	spent := a.spent
	var sum float64
	live := 0
	for _, e := range a.ledger {
		if !e.refunded {
			sum += e.s.Epsilon
			live++
		}
	}
	a.mu.Unlock()
	if math.Abs(spent-sum) > 1e-9 {
		t.Errorf("ledger invariant broken: Spent %g != sum of ledger %g (%d live entries)", spent, sum, live)
	}
}

// TestAccountantRefundRaceHammer is the regression test for the refund
// bug: concurrent Recommend/RecommendTopK calls across many principals,
// some failing (out-of-range targets) and refunded, while a checker
// continuously asserts Spent() == Σ Ledger(). Under the old truncate-last
// refund, a failed call's refund deleted a concurrent success's entry; the
// final ledger then disagrees with the success count.
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
	var successes atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch i % 3 {
				case 0: // guaranteed failure: out-of-range target, refunded
					if _, err := a.Recommend(-1 - w); !errors.Is(err, ErrBadTarget) {
						t.Errorf("want ErrBadTarget, got %v", err)
						return
					}
					failures.Add(1)
				case 1:
					if _, err := a.Recommend((w*ops + i) % targets); err == nil {
						successes.Add(1)
					} else if !errors.Is(err, ErrNoCandidates) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				default:
					if _, err := a.RecommendTopK((w*ops+i)%targets, 2); err == nil {
						successes.Add(1)
					} else if !errors.Is(err, ErrNoCandidates) {
						t.Errorf("unexpected top-k error: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// The invariant checker runs while the hammer is live: the ledger and
	// its sum must agree at every observable instant, not just at the end.
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
				ledgerInvariant(t, a)
			}
		}
	}()
	wg.Wait()
	close(stop)
	checker.Wait()

	// No entry lost, none double-refunded: exactly the successful calls
	// remain, and the spend is exactly ε per success.
	ledgerInvariant(t, a)
	if got, want := len(a.Ledger()), int(successes.Load()); got != want {
		t.Errorf("ledger has %d entries, want %d (one per success; %d failures refunded)",
			got, want, failures.Load())
	}
	if got, want := a.Spent(), float64(successes.Load()); got != want {
		t.Errorf("Spent() = %g, want %g", got, want)
	}
	if got, want := a.Calls(), int(successes.Load()); got != want {
		t.Errorf("Calls() = %d, want %d", got, want)
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
	if got := a.Calls(); got != 2 {
		t.Errorf("Calls() = %d, want 2 (refunded call excluded)", got)
	}
	if got := len(a.Ledger()); got != a.Calls() {
		t.Errorf("Calls() = %d != len(Ledger()) = %d", a.Calls(), got)
	}
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

// TestAccountantLedgerBoundedUnderRefundLoops: refunded charges tombstone
// their ledger entry, and compaction must reclaim the tombstones — an
// endless loop of admitted-then-refunded calls (each failure restores the
// budget, so it never terminates via exhaustion) must not grow the ledger
// without bound.
func TestAccountantLedgerBoundedUnderRefundLoops(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(28))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 5)
	if err != nil {
		t.Fatal(err)
	}
	target := pickTarget(t, g)
	if _, err := a.Recommend(target); err != nil {
		t.Fatal(err)
	}
	const failures = 5000
	for i := 0; i < failures; i++ {
		if _, err := a.Recommend(-1); !errors.Is(err, ErrBadTarget) {
			t.Fatalf("failure %d: want ErrBadTarget, got %v", i, err)
		}
	}
	a.mu.Lock()
	size := len(a.ledger)
	a.mu.Unlock()
	if size > 2048 {
		t.Errorf("ledger holds %d entries after %d refunded calls (compaction not reclaiming tombstones)", size, failures)
	}
	if got := a.Ledger(); len(got) != 1 || got[0].Target != target {
		t.Errorf("live ledger after refund loop: %v", got)
	}
	if a.Spent() != 1 || a.Calls() != 1 {
		t.Errorf("counters after refund loop: spent=%g calls=%d", a.Spent(), a.Calls())
	}
}

// TestAccountantDisableLedger checks the ledger-free mode keeps every
// counter (spent, remaining, calls, per-principal stats) and admission
// decision intact while Ledger() reports nothing.
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
	target := pickTarget(t, g)
	for i := 0; i < 3; i++ {
		if _, err := a.Recommend(target); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if _, err := a.Recommend(target); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("fourth call: want ErrBudgetExhausted, got %v", err)
	}
	if _, err := a.Recommend(-1); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("refund path must still see exhaustion first, got %v", err)
	}
	if a.Spent() != 3 || a.Remaining() != 0 || a.Calls() != 3 {
		t.Errorf("counters: spent=%g remaining=%g calls=%d", a.Spent(), a.Remaining(), a.Calls())
	}
	if got := a.Ledger(); got != nil {
		t.Errorf("disabled ledger returned %d entries", len(got))
	}
	if st := a.TargetStats(target); st.Spent != 3 || st.Calls != 3 {
		t.Errorf("target stats: %+v", st)
	}
}

// TestAccountantBatchPartialRefusal: one reservation round charges the
// whole batch, refusing per target. A duplicate target past its principal
// cap is refused in place while its neighbors proceed, and a granted
// target that fails evaluation is refunded individually.
func TestAccountantBatchPartialRefusal(t *testing.T) {
	g := topKGraph(t)
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccountant(rec, 0, PerPrincipalBudget(1))
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
	// Slots: [granted, refused duplicate (cap 1), granted other, failing
	// target (granted then refunded)].
	batch := []int{servable[0], servable[0], servable[1], -1}
	out := a.BatchRecommend(batch)
	if out[0].Err != nil {
		t.Errorf("slot 0: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, ErrBudgetExhausted) {
		t.Errorf("slot 1 (duplicate past cap): want exhaustion, got %v", out[1].Err)
	}
	if out[2].Err != nil {
		t.Errorf("slot 2 (other principal): %v", out[2].Err)
	}
	if !errors.Is(out[3].Err, ErrBadTarget) {
		t.Errorf("slot 3 (bad target): want ErrBadTarget, got %v", out[3].Err)
	}
	// Spend: slots 0 and 2 only; slot 1 never charged, slot 3 refunded.
	if got := a.Spent(); got != 2 {
		t.Errorf("Spent() = %g after batch, want 2", got)
	}
	if got := len(a.Ledger()); got != 2 {
		t.Errorf("ledger has %d entries, want 2", got)
	}
	// Granted slots are bit-identical to individual calls on a fresh
	// accountant over the same seed.
	rec2, err := NewRecommender(g, WithEpsilon(1), WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec2.Recommend(servable[0])
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Recommendation != want {
		t.Errorf("batch slot 0 = %+v, want %+v", out[0].Recommendation, want)
	}
	// Top-k variant: same partial-refusal shape.
	outK := a.BatchRecommendTopK([]int{servable[0], servable[1]}, 2)
	if !errors.Is(outK[0].Err, ErrBudgetExhausted) {
		t.Errorf("top-k slot 0: principal already exhausted, got %v", outK[0].Err)
	}
	if !errors.Is(outK[1].Err, ErrBudgetExhausted) {
		t.Errorf("top-k slot 1: principal already exhausted, got %v", outK[1].Err)
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
