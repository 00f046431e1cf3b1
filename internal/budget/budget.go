// Package budget implements striped, per-principal privacy-budget
// accounting for differentially private serving.
//
// Differential privacy composes additively per user: every answered query
// spends another ε of a principal's budget, so the quantity a deployment
// must enforce is the cumulative spend of each individual principal — the
// target node, in socialrec's Accountant — optionally alongside a global cap across all principals. A single global
// counter (the original socialrec.Accountant) conflates the two: one hot
// user exhausts everyone's budget, and nothing bounds how much any
// individual target has leaked.
//
// The Manager shards principals across fixed lock stripes and keeps every
// counter atomic, so admission is O(1) with no global lock: concurrent
// requests for different principals contend only on their stripe's map
// lookup (lock-free after first touch) and on CAS loops over independent
// counters. Charges are reservation tokens: Reserve debits the budget
// before the query runs (so concurrent callers cannot jointly overspend)
// and hands back a Reservation whose Refund credits back exactly that
// reservation — by construction a refund can never cancel another
// request's charge, which was the Accountant's ledger-truncation race.
package budget

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// chargeTol absorbs float64 rounding when a sequence of charges lands
// exactly on the cap: spending ε=0.1 three times against a budget of 0.3
// accumulates to 0.30000000000000004, which must still be admitted.
const chargeTol = 1e-12

// ErrExhausted is the sentinel wrapped by every refused charge.
var ErrExhausted = errors.New("budget exhausted")

// Exhausted reports a refused charge with the context a serving layer
// needs to throttle precisely: which scope refused (the named principal,
// or the global cap when Principal is empty) and how much room is left.
type Exhausted struct {
	Principal string  // "" when the global budget refused the charge
	Limit     float64 // the cap of the refusing scope
	Spent     float64 // spend of the refusing scope at refusal time
	Need      float64 // the ε the charge asked for
}

// Error implements error.
func (e *Exhausted) Error() string {
	if e.Principal == "" {
		return fmt.Sprintf("%v: spent %g of %g, need %g more", ErrExhausted, e.Spent, e.Limit, e.Need)
	}
	return fmt.Sprintf("%v: principal %q spent %g of %g, need %g more", ErrExhausted, e.Principal, e.Spent, e.Limit, e.Need)
}

// Unwrap lets errors.Is(err, ErrExhausted) classify refusals.
func (e *Exhausted) Unwrap() error { return ErrExhausted }

// Remaining returns the refusing scope's leftover ε, clamped at zero.
func (e *Exhausted) Remaining() float64 {
	if rem := e.Limit - e.Spent; rem > 0 {
		return rem
	}
	return 0
}

// Limits configures a Manager. A zero limit means "no cap at that scope";
// at least one scope must be capped for the Manager to be meaningful, but
// the Manager itself does not require it (it still tracks spend).
type Limits struct {
	// Global caps the cumulative ε across every principal; 0 = uncapped.
	Global float64
	// PerPrincipal caps each principal's cumulative ε; 0 = uncapped.
	PerPrincipal float64
}

// numShards is the stripe count. 64 stripes keep the map-lock collision
// probability low for any realistic goroutine count while the fixed array
// stays small enough to embed in the Manager.
const numShards = 64

// Manager tracks per-principal and global privacy spend. Safe for
// concurrent use; the zero value is not usable, construct with NewManager.
type Manager struct {
	limits Limits

	globalSpent atomicFloat
	globalCalls atomic.Int64
	nprincipals atomic.Int64

	shards [numShards]shard
}

type shard struct {
	mu         sync.RWMutex
	principals map[string]*principalState
}

// principalState is one principal's counters. Both fields are atomic so
// stats reads and the admission fast path never take the shard lock once
// the state exists.
type principalState struct {
	spent atomicFloat
	calls atomic.Int64
}

// NewManager returns a Manager enforcing the given limits.
func NewManager(lim Limits) *Manager {
	m := &Manager{limits: lim}
	for i := range m.shards {
		m.shards[i].principals = make(map[string]*principalState)
	}
	return m
}

// Limits returns the configured caps.
func (m *Manager) Limits() Limits { return m.limits }

// lookup returns the principal's state, creating it when create is set.
// The read path is an RLock map hit; creation double-checks under the
// write lock so concurrent first touches converge on one state.
func (m *Manager) lookup(key string, create bool) *principalState {
	sh := &m.shards[fnv1a(key)%numShards]
	sh.mu.RLock()
	p := sh.principals[key]
	sh.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p = sh.principals[key]; p == nil {
		p = &principalState{}
		sh.principals[key] = p
		m.nprincipals.Add(1)
	}
	return p
}

// Reservation is one admitted charge. It is returned by Reserve already
// committed; Refund cancels it — and only it — after a failed query.
type Reservation struct {
	m       *Manager
	p       *principalState
	key     string
	eps     float64
	settled atomic.Bool
}

// Principal returns the key the reservation was charged to.
func (r *Reservation) Principal() string { return r.key }

// Epsilon returns the reserved ε.
func (r *Reservation) Epsilon() float64 { return r.eps }

// Reserve atomically debits eps from both the principal's and the global
// budget, refusing with *Exhausted when either cap would be overdrawn.
// Debiting before the query runs keeps concurrent callers from jointly
// overspending; a query that later fails returns its reservation with
// Refund.
func (m *Manager) Reserve(key string, eps float64) (*Reservation, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("budget: reservation epsilon %g must be positive", eps)
	}
	// Global first, principal second; a principal refusal rolls the global
	// debit back. The two debits are individually atomic, so the transient
	// over-debit of the global counter between them can only refuse a
	// racing caller spuriously (never admit one past the cap), and the
	// rollback is bounded by the duration of one map lookup.
	if !m.globalSpent.tryAdd(eps, m.limits.Global) {
		return nil, &Exhausted{Limit: m.limits.Global, Spent: m.globalSpent.load(), Need: eps}
	}
	p := m.lookup(key, true)
	if !p.spent.tryAdd(eps, m.limits.PerPrincipal) {
		m.globalSpent.add(-eps)
		return nil, &Exhausted{Principal: key, Limit: m.limits.PerPrincipal, Spent: p.spent.load(), Need: eps}
	}
	m.globalCalls.Add(1)
	p.calls.Add(1)
	return &Reservation{m: m, p: p, key: key, eps: eps}, nil
}

// Refund credits the reservation back after a failed query. It cancels
// exactly this reservation: concurrent refunds of other reservations, or
// new charges for the same principal, are untouched. Refund is idempotent
// and reports whether this call performed the credit (false when the
// reservation was already refunded).
func (r *Reservation) Refund() bool {
	if !r.settled.CompareAndSwap(false, true) {
		return false
	}
	r.p.spent.add(-r.eps)
	r.p.calls.Add(-1)
	r.m.globalSpent.add(-r.eps)
	r.m.globalCalls.Add(-1)
	return true
}

// Stats is a point-in-time snapshot of one accounting scope.
type Stats struct {
	// Limit is the scope's cap; 0 means uncapped.
	Limit float64
	// Spent is the cumulative ε charged, clamped at 0 (repeated float64
	// refunds can drift a fully-refunded counter to -1e-17).
	Spent float64
	// Remaining is max(0, Limit-Spent), or +Inf when uncapped. The clamp
	// matters: charges within the admission tolerance can leave Spent a
	// hair above Limit, and a negative remaining budget must never be
	// reported to clients.
	Remaining float64
	// Calls is the number of admitted, un-refunded reservations.
	Calls int64
}

func makeStats(limit, spent float64, calls int64) Stats {
	if spent < 0 {
		spent = 0
	}
	rem := math.Inf(1)
	if limit > 0 {
		rem = limit - spent
		if rem < 0 {
			rem = 0
		}
	}
	return Stats{Limit: limit, Spent: spent, Remaining: rem, Calls: calls}
}

// Global returns the all-principals scope.
func (m *Manager) Global() Stats {
	return makeStats(m.limits.Global, m.globalSpent.load(), m.globalCalls.Load())
}

// Principal returns one principal's scope. The bool reports whether the
// principal has ever been charged; either way the Stats are valid (an
// unseen principal has its full budget remaining).
func (m *Manager) Principal(key string) (Stats, bool) {
	p := m.lookup(key, false)
	if p == nil {
		return makeStats(m.limits.PerPrincipal, 0, 0), false
	}
	return makeStats(m.limits.PerPrincipal, p.spent.load(), p.calls.Load()), true
}

// Principals returns how many distinct principals have been charged.
func (m *Manager) Principals() int { return int(m.nprincipals.Load()) }

// atomicFloat is a float64 with atomic add and capped add, built on a CAS
// loop over the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// tryAdd adds delta unless the result would exceed limit+chargeTol; a
// non-positive limit means uncapped. The check and the add are one atomic
// step, so racing charges can never jointly overdraw the cap.
func (f *atomicFloat) tryAdd(delta, limit float64) bool {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if limit > 0 && cur+delta > limit+chargeTol {
			return false
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return true
		}
	}
}

// fnv1a is the 32-bit FNV-1a hash, inlined to keep shard selection
// allocation-free (hash/fnv works through an interface and escapes).
func fnv1a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
