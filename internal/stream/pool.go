package stream

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Instrumented scratch pools. The streaming pipeline's zero-allocation claim
// rests on sync.Pool recycling actually working — a pool that misses on
// every Get silently turns "pooled scratch" back into per-request garbage
// without failing any test. Pool wraps sync.Pool with three counters (gets,
// puts, news) and registers itself in a package-level registry, so serving
// exposes pool effectiveness on /healthz next to the cache counters and a
// pool-miss regression is observable in production: healthy steady state
// is news << gets and puts ≈ gets.

// PoolStat is a point-in-time snapshot of one pool's counters.
type PoolStat struct {
	// Name identifies the pool ("utility.sparse", "mechanism.peel", ...).
	Name string `json:"name"`
	// Gets counts Get calls; Puts counts Put calls. A persistent gap means
	// scratch is leaking past Close.
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	// News counts Gets the pool could not serve from recycled scratch — the
	// allocations that actually happened. News/Gets is the pool miss rate.
	News uint64 `json:"news"`
}

// Pool is an instrumented, registered sync.Pool of *T scratch values.
type Pool[T any] struct {
	name             string
	pool             sync.Pool
	gets, puts, news atomic.Uint64
}

// statSource lets the registry hold pools of different type parameters.
type statSource interface{ stat() PoolStat }

var (
	registryMu sync.Mutex
	registry   []statSource
)

// NewPool returns a registered pool named name whose misses are served by
// newFn. Pools are package-level singletons created at init time; the name
// must be unique enough to read in a /healthz dump.
func NewPool[T any](name string, newFn func() *T) *Pool[T] {
	p := &Pool[T]{name: name}
	p.pool.New = func() any {
		p.news.Add(1)
		return newFn()
	}
	registryMu.Lock()
	registry = append(registry, p)
	registryMu.Unlock()
	return p
}

// Get returns pooled scratch, allocating via the pool's newFn on a miss.
func (p *Pool[T]) Get() *T {
	p.gets.Add(1)
	return p.pool.Get().(*T)
}

// Put returns scratch to the pool. The caller must have reset any state the
// next Get should not observe.
func (p *Pool[T]) Put(v *T) {
	p.puts.Add(1)
	p.pool.Put(v)
}

func (p *Pool[T]) stat() PoolStat {
	return PoolStat{
		Name: p.name,
		Gets: p.gets.Load(),
		Puts: p.puts.Load(),
		News: p.news.Load(),
	}
}

// Stats snapshots every registered pool's counters, sorted by name.
func Stats() []PoolStat {
	registryMu.Lock()
	out := make([]PoolStat, len(registry))
	for i, s := range registry {
		out[i] = s.stat()
	}
	registryMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
