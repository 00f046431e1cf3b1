package socialrec

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

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
// Admission and accounting are delegated to a striped, atomically-counted
// budget manager, so concurrent requests for different principals do not
// contend on one global lock, and Spent, Remaining, Calls and TargetStats
// read its counters. Charges are reservations: the budget is debited before
// the query runs, and a query that fails refunds exactly its own
// reservation — never another request's.
//
// An Accountant is safe for concurrent use.
type Accountant struct {
	rec *Recommender
	mgr *budget.Manager
}

// AccountantOption configures optional Accountant behavior.
type AccountantOption func(*acctConfig) error

type acctConfig struct {
	perPrincipal float64
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

// DisableLedger has no effect: the Accountant keeps no per-call ledger,
// and every statistic reads the budget manager's counters.
//
// Deprecated: DisableLedger is a no-op kept for existing callers; it is
// deleted with ROADMAP item 9.
func DisableLedger() AccountantOption {
	return func(*acctConfig) error { return nil }
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
		rec: rec,
		mgr: budget.NewManager(budget.Limits{Global: totalEpsilon, PerPrincipal: cfg.perPrincipal}),
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
func (a *Accountant) Spent() float64 { return a.mgr.Global().Spent }

// Remaining returns the global ε still available, clamped at 0 (a charge
// admitted within the float64 tolerance can leave the spend a hair above
// the cap, and a negative budget must never be reported). It is +Inf when
// the global budget is uncapped.
func (a *Accountant) Remaining() float64 { return a.mgr.Global().Remaining }

// Calls returns the number of admitted, un-refunded charges.
func (a *Accountant) Calls() int { return int(a.mgr.Global().Calls) }

// Principals returns how many distinct principals have been charged.
func (a *Accountant) Principals() int { return a.mgr.Principals() }

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

// charge reserves the Recommender's ε for target's principal, runs query,
// and refunds the reservation if query fails. Reserving before the query
// (rather than recording after) keeps concurrent callers from jointly
// overspending; a refused reservation returns ErrBudgetExhausted (a
// *BudgetError) without running query. A query that returned an error
// released nothing (the error depends only on the target's own edges,
// which the relaxed privacy definition does not protect), so its refund
// cancels exactly its own reservation and cannot touch any other
// request's charge.
func charge[T any](a *Accountant, target int, query func() (T, error)) (T, error) {
	var zero T
	res, err := a.mgr.Reserve(principalOf(target), a.rec.Epsilon())
	if err != nil {
		return zero, asBudgetError(err)
	}
	v, err := query()
	if err != nil {
		res.Refund()
		return zero, err
	}
	return v, nil
}

// Recommend makes one private recommendation, charging ε against the
// global budget and the target's own principal budget.
func (a *Accountant) Recommend(target int) (Recommendation, error) {
	return charge(a, target, func() (Recommendation, error) { return a.rec.Recommend(target) })
}

// RecommendWithRNG is Recommend with caller-supplied randomness — the
// serving layer passes each HTTP request its own Recommender.RequestRNG()
// stream, because Recommend's target-keyed stream would give every repeated
// request for a target the same pick. Budget semantics are identical to
// Recommend: the charge lands before the query and is refunded on failure,
// once per call, whether or not the cache served the pre-noise stage.
func (a *Accountant) RecommendWithRNG(target int, rng *rand.Rand) (Recommendation, error) {
	return charge(a, target, func() (Recommendation, error) { return a.rec.RecommendWithRNG(target, rng) })
}

// RecommendTopK makes k private recommendations, charging ε for the whole
// set (the top-k constructions in this library bound the full set's privacy
// by the Recommender's ε; see Recommender.RecommendTopK).
func (a *Accountant) RecommendTopK(target, k int) ([]Recommendation, error) {
	return charge(a, target, func() ([]Recommendation, error) { return a.rec.RecommendTopK(target, k) })
}

// RecommendTopKWithRNG is RecommendTopK with caller-supplied randomness;
// see RecommendWithRNG for why the serving layer uses it.
func (a *Accountant) RecommendTopKWithRNG(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	return charge(a, target, func() ([]Recommendation, error) { return a.rec.RecommendTopKWithRNG(target, k, rng) })
}
