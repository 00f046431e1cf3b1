package socialrec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"socialrec/internal/budget"
)

// ErrBudgetExhausted is returned when a call would exceed a privacy
// budget — the global one, or the calling principal's. Refusals carry a
// *BudgetError with the scope and remaining budget; classify with
// errors.Is and inspect with errors.As.
var ErrBudgetExhausted = errors.New("socialrec: privacy budget exhausted")

// BudgetError is the detailed form of ErrBudgetExhausted: which scope
// refused the charge (the named principal, or the global budget when
// Principal is empty) and how much room that scope has left. Serving
// layers use it to throttle precisely — a 429 for one exhausted user must
// not imply anything about another's budget.
type BudgetError struct {
	// Principal is the refused principal's key; empty when the global
	// budget refused the charge.
	Principal string
	// Limit and Spent describe the refusing scope at refusal time.
	Limit float64
	Spent float64
	// Need is the ε the refused charge asked for.
	Need float64
}

// Error implements error.
func (e *BudgetError) Error() string {
	if e.Principal == "" {
		return fmt.Sprintf("%v: spent %g of %g, need %g more", ErrBudgetExhausted, e.Spent, e.Limit, e.Need)
	}
	return fmt.Sprintf("%v: principal %q spent %g of %g, need %g more", ErrBudgetExhausted, e.Principal, e.Spent, e.Limit, e.Need)
}

// Unwrap lets errors.Is(err, ErrBudgetExhausted) classify refusals.
func (e *BudgetError) Unwrap() error { return ErrBudgetExhausted }

// Remaining returns the refusing scope's leftover ε, clamped at zero.
func (e *BudgetError) Remaining() float64 {
	if rem := e.Limit - e.Spent; rem > 0 {
		return rem
	}
	return 0
}

// asBudgetError converts the internal manager's refusal into the public
// error type.
func asBudgetError(err error) error {
	var ex *budget.Exhausted
	if errors.As(err, &ex) {
		return &BudgetError{Principal: ex.Principal, Limit: ex.Limit, Spent: ex.Spent, Need: ex.Need}
	}
	return err
}

// Accountant enforces privacy budgets over repeated recommendations.
//
// Differential privacy composes additively: every call to Recommend or
// RecommendTopK releases another ε of information about EVERY sensitive
// edge in the graph — not only the target's — because each recommendation
// is computed from the whole graph. A deployment that answers unlimited
// queries therefore provides no meaningful guarantee. The Accountant
// tracks the cumulative spend at two scopes and refuses calls past either
// cap:
//
//   - the global budget (totalEpsilon), the deployment-wide cap the
//     original Accountant enforced; and
//   - optionally a per-principal budget (PerPrincipalBudget), capping each
//     individual principal's cumulative spend. The principal is the target
//     node — the paper's guarantee is per-user, so the per-target spend is
//     the deployment's real privacy posture.
//
// Admission is delegated to a striped, atomically-counted budget manager,
// so concurrent requests for different principals do not contend on one
// global lock; the Accountant itself only serializes its audit ledger.
// Charges are reservations: the budget is debited before the query runs,
// and a query that fails refunds exactly its own reservation — never
// another request's.
//
// An Accountant is safe for concurrent use.
type Accountant struct {
	rec      *Recommender
	mgr      *budget.Manager
	noLedger bool

	// calls counts admitted, un-refunded charges; kept as an atomic so
	// Calls() is O(1) and lock-free (the ledger may hold millions of
	// entries).
	calls atomic.Int64

	// mu guards the audit ledger and its running sum. Spent() and Ledger()
	// read both under the same lock, so the invariant
	// Spent() == Σ Ledger()[i].Epsilon holds at every observable instant.
	mu         sync.Mutex
	spent      float64
	ledger     []*ledgerEntry
	tombstones int
}

// ledgerEntry is one admitted charge. Refunds tombstone their own entry
// (the pointer is pinned inside the reservation token), so a refund can
// never remove another request's entry — the append-then-truncate scheme
// this replaces deleted whichever entry happened to be newest. Tombstones
// are compacted away once they dominate the ledger (see refund), which
// keeps the slice bounded by the live entries even under endless
// charge-then-refund loops; pinning by pointer rather than index is what
// lets compaction move entries under in-flight reservations.
type ledgerEntry struct {
	s        Spend
	refunded bool
}

// Spend is one entry of the accountant's ledger.
type Spend struct {
	Target  int
	K       int // 1 for single recommendations
	Epsilon float64
	// Principal is the budget key the charge was accounted to: the
	// target's decimal string.
	Principal string
}

// AccountantOption configures optional Accountant behavior.
type AccountantOption func(*acctConfig) error

type acctConfig struct {
	perPrincipal float64
	noLedger     bool
}

// PerPrincipalBudget caps each principal's cumulative ε at eps. A
// principal at its cap gets ErrBudgetExhausted while every other principal
// keeps serving. The cap must be at least the Recommender's per-call ε.
func PerPrincipalBudget(eps float64) AccountantOption {
	return func(c *acctConfig) error {
		if eps <= 0 {
			return fmt.Errorf("socialrec: per-principal budget %g must be positive", eps)
		}
		c.perPrincipal = eps
		return nil
	}
}

// DisableLedger turns off the per-call audit ledger: Ledger() returns nil
// and Spent() reads the manager's O(1) counters instead. The ledger holds
// one entry per live (un-refunded) admitted call, which is fine under a
// global cap (the cap bounds it) but unbounded under per-principal-only
// budgets at millions-of-users scale; serving deployments that never read
// the audit trail should disable it. Admission decisions, Spent,
// Remaining, Calls, and all per-principal stats are unaffected.
func DisableLedger() AccountantOption {
	return func(c *acctConfig) error {
		c.noLedger = true
		return nil
	}
}

// NewAccountant wraps a Recommender with privacy budgets. totalEpsilon is
// the global cap and must be at least the Recommender's per-call ε; with a
// PerPrincipalBudget option, totalEpsilon may instead be 0, meaning no
// global cap (per-principal limits only).
func NewAccountant(rec *Recommender, totalEpsilon float64, opts ...AccountantOption) (*Accountant, error) {
	if rec == nil {
		return nil, ErrNilGraph
	}
	if rec.Mechanism() == MechanismNone {
		return nil, fmt.Errorf("socialrec: accountant over a non-private recommender is meaningless")
	}
	var cfg acctConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	eps := rec.Epsilon()
	if totalEpsilon == 0 && cfg.perPrincipal == 0 {
		return nil, fmt.Errorf("socialrec: total budget %g below per-call epsilon %g", totalEpsilon, eps)
	}
	if totalEpsilon != 0 && totalEpsilon < eps {
		return nil, fmt.Errorf("socialrec: total budget %g below per-call epsilon %g", totalEpsilon, eps)
	}
	if cfg.perPrincipal != 0 && cfg.perPrincipal < eps {
		return nil, fmt.Errorf("socialrec: per-principal budget %g below per-call epsilon %g", cfg.perPrincipal, eps)
	}
	return &Accountant{
		rec:      rec,
		mgr:      budget.NewManager(budget.Limits{Global: totalEpsilon, PerPrincipal: cfg.perPrincipal}),
		noLedger: cfg.noLedger,
	}, nil
}

// principalOf is the budget key of a target: each target node is its own
// principal.
func principalOf(target int) string { return strconv.Itoa(target) }

// Total returns the configured global budget; 0 means uncapped.
func (a *Accountant) Total() float64 { return a.mgr.Limits().Global }

// PerPrincipalLimit returns the configured per-principal budget; 0 means
// no per-principal cap.
func (a *Accountant) PerPrincipalLimit() float64 { return a.mgr.Limits().PerPrincipal }

// Spent returns the ε consumed so far across all principals.
func (a *Accountant) Spent() float64 {
	if a.noLedger {
		return a.mgr.Global().Spent
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the global ε still available, clamped at 0 (a charge
// admitted within the float64 tolerance can leave the spend a hair above
// the cap, and a negative budget must never be reported). It is +Inf when
// the global budget is uncapped.
func (a *Accountant) Remaining() float64 {
	total := a.mgr.Limits().Global
	if total <= 0 {
		return math.Inf(1)
	}
	if rem := total - a.Spent(); rem > 0 {
		return rem
	}
	return 0
}

// Calls returns the number of admitted, un-refunded charges — the length
// of Ledger() — in O(1), without copying the ledger.
func (a *Accountant) Calls() int { return int(a.calls.Load()) }

// Principals returns how many distinct principals have been charged.
func (a *Accountant) Principals() int { return a.mgr.Principals() }

// Ledger returns a copy of the spend history in charge order, excluding
// refunded entries. It is nil when the accountant was built with
// DisableLedger.
func (a *Accountant) Ledger() []Spend {
	if a.noLedger {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Spend, 0, len(a.ledger))
	for _, e := range a.ledger {
		if !e.refunded {
			out = append(out, e.s)
		}
	}
	return out
}

// BudgetStats is a point-in-time snapshot of one accounting scope.
type BudgetStats struct {
	// Principal is the scope's key; empty for the global scope.
	Principal string
	// Limit is the scope's cap; 0 means uncapped.
	Limit float64
	// Spent is the scope's cumulative charged ε (clamped at 0).
	Spent float64
	// Remaining is max(0, Limit-Spent), or +Inf when uncapped.
	Remaining float64
	// Calls is the scope's number of admitted, un-refunded charges.
	Calls int64
}

// TargetStats returns the budget scope of a target's own principal.
// Unseen targets are valid: they report zero spend and a full remaining
// budget.
func (a *Accountant) TargetStats(target int) BudgetStats {
	principal := principalOf(target)
	st, _ := a.mgr.Principal(principal)
	return BudgetStats{Principal: principal, Limit: st.Limit, Spent: st.Spent, Remaining: st.Remaining, Calls: st.Calls}
}

// reservation is a charge token: the manager-side reservation plus this
// charge's own ledger entry (nil with DisableLedger), so refund cancels
// exactly this charge at both layers.
type reservation struct {
	res   *budget.Reservation
	entry *ledgerEntry
	eps   float64
}

// charge reserves eps for the principal atomically, returning
// ErrBudgetExhausted (a *BudgetError) when either the principal's or the
// global cap would be overdrawn. Reserving before the query (rather than
// recording after) keeps concurrent callers from jointly overspending.
func (a *Accountant) charge(principal string, target, k int, eps float64) (reservation, error) {
	res, err := a.mgr.Reserve(principal, eps)
	if err != nil {
		return reservation{}, asBudgetError(err)
	}
	var entry *ledgerEntry
	if !a.noLedger {
		entry = &ledgerEntry{s: Spend{Target: target, K: k, Epsilon: eps, Principal: principal}}
		a.mu.Lock()
		a.ledger = append(a.ledger, entry)
		a.spent += eps
		a.mu.Unlock()
	}
	a.calls.Add(1)
	return reservation{res: res, entry: entry, eps: eps}, nil
}

// refund returns a reservation after a failed query: a call that returned
// an error released nothing (the error depends only on the target's own
// edges, which the relaxed privacy definition does not protect). The
// refund credits the manager and tombstones the charge's own ledger entry;
// it cannot touch any other request's charge.
func (a *Accountant) refund(r reservation) {
	if !r.res.Refund() {
		return
	}
	if r.entry != nil {
		a.mu.Lock()
		r.entry.refunded = true
		a.spent -= r.eps
		a.tombstones++
		// Compact once tombstones dominate a non-trivial ledger: O(n) work
		// amortized over the >= n/2 refunds that triggered it, bounding the
		// slice by the live entries even under endless charge-then-refund
		// loops (the old truncate-on-refund never grew the ledger on failed
		// calls; tombstoning alone would).
		if a.tombstones >= 1024 && 2*a.tombstones >= len(a.ledger) {
			live := a.ledger[:0]
			for _, e := range a.ledger {
				if !e.refunded {
					live = append(live, e)
				}
			}
			clear(a.ledger[len(live):])
			a.ledger = live
			a.tombstones = 0
		}
		a.mu.Unlock()
	}
	a.calls.Add(-1)
}

// Recommend makes one private recommendation, charging ε against the
// global budget and the target's own principal budget.
func (a *Accountant) Recommend(target int) (Recommendation, error) {
	eps := a.rec.Epsilon()
	tok, err := a.charge(principalOf(target), target, 1, eps)
	if err != nil {
		return Recommendation{}, err
	}
	rec, err := a.rec.Recommend(target)
	if err != nil {
		a.refund(tok)
		return Recommendation{}, err
	}
	return rec, nil
}

// RecommendWithRNG is Recommend with caller-supplied randomness — the
// serving layer passes each HTTP request its own Recommender.RequestRNG()
// stream, because Recommend's target-keyed stream would give every repeated
// request for a target the same pick. Budget semantics are identical to
// Recommend: the charge lands before the query and is refunded on failure,
// once per call, whether or not the cache served the pre-noise stage.
func (a *Accountant) RecommendWithRNG(target int, rng *rand.Rand) (Recommendation, error) {
	eps := a.rec.Epsilon()
	tok, err := a.charge(principalOf(target), target, 1, eps)
	if err != nil {
		return Recommendation{}, err
	}
	rec, err := a.rec.RecommendWithRNG(target, rng)
	if err != nil {
		a.refund(tok)
		return Recommendation{}, err
	}
	return rec, nil
}

// RecommendTopK makes k private recommendations, charging ε for the whole
// set (the top-k constructions in this library bound the full set's privacy
// by the Recommender's ε; see Recommender.RecommendTopK).
func (a *Accountant) RecommendTopK(target, k int) ([]Recommendation, error) {
	eps := a.rec.Epsilon()
	tok, err := a.charge(principalOf(target), target, k, eps)
	if err != nil {
		return nil, err
	}
	recs, err := a.rec.RecommendTopK(target, k)
	if err != nil {
		a.refund(tok)
		return nil, err
	}
	return recs, nil
}

// RecommendTopKWithRNG is RecommendTopK with caller-supplied randomness;
// see RecommendWithRNG for why the serving layer uses it.
func (a *Accountant) RecommendTopKWithRNG(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	eps := a.rec.Epsilon()
	tok, err := a.charge(principalOf(target), target, k, eps)
	if err != nil {
		return nil, err
	}
	recs, err := a.rec.RecommendTopKWithRNG(target, k, rng)
	if err != nil {
		a.refund(tok)
		return nil, err
	}
	return recs, nil
}
