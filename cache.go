package socialrec

import (
	"container/list"
	"sync"
	"sync/atomic"

	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
)

// The utility-vector cache memoizes the deterministic pre-processing stage
// of serving: for a fixed graph snapshot, a target's compacted utility
// vector, candidate list, and maximum utility never change, while the DP
// noise — the only part of a recommendation that must be fresh — is applied
// afterwards, per draw. Caching this stage is therefore pure pre-processing
// under the paper's privacy definition: the mechanism's output distribution
// is identical with and without the cache, so the ε guarantee is untouched.
// Cached values hold raw (non-private) utilities and must never leave the
// process; only the Recommendation values derived from fresh noise do.
//
// Entries are keyed by (epoch, target). The epoch increments whenever the
// Recommender swaps in a new graph snapshot (RefreshSnapshot or a live
// Rebuild). At each swap, advance sweeps every shard once: entries of the
// outgoing epoch whose target lies outside the delta batch's
// radius-expanded touched set are re-keyed to the new epoch in place
// (delta-aware invalidation, see invalidate.go), while touched and
// dead-epoch entries are removed immediately — so CacheStats never counts
// unusable residue and a high-churn live graph keeps serving warm. Without
// delta information (or with WithDeltaInvalidation off) the sweep
// degenerates to a full flush. The cache is sharded to keep lock contention
// negligible under concurrent serving.

// DefaultCacheSize is the entry cap WithCache uses when given a
// non-positive size.
const DefaultCacheSize = 4096

// cacheShardCount must be a power of two; 16 shards keep contention low at
// typical server parallelism without wasting memory on tiny graphs.
const cacheShardCount = 16

// CacheStats is a point-in-time snapshot of the utility-vector cache's
// effectiveness, exposed for operational monitoring (e.g. recserver's
// /healthz endpoint).
type CacheStats struct {
	// Hits counts vector() calls answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts vector() calls that had to recompute.
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached targets across all shards.
	Entries int `json:"entries"`
	// Capacity is the configured entry cap.
	Capacity int `json:"capacity"`
	// Bytes approximates the resident size of all cached entries. Sparse
	// entries cost O(nonzeros), not O(n). Node IDs are gap-coded: about
	// 1 B per nonzero on the bundled graphs (one uvarint per gap) plus a
	// 4 B offset per 32 nonzeros. An entry with at most 256 distinct
	// utilities — every common-neighbour entry on the bundled graphs —
	// adds 1 B per nonzero (a level code) plus 8 B per distinct utility;
	// one with more keeps an 8 B utility per nonzero. The exponential
	// mechanism adds 0.25 B per nonzero for the CDF's one 8 B prefix sum
	// per 32 nonzeros.
	Bytes int64 `json:"approx_bytes"`
	// Retained counts entries carried across snapshot swaps by delta-aware
	// invalidation (re-keyed to the new epoch instead of discarded).
	Retained uint64 `json:"retained"`
	// Invalidated counts entries discarded at snapshot swaps — because a
	// delta batch came within the utility's invalidation radius of their
	// target, or because the swap had no delta information and flushed
	// everything.
	Invalidated uint64 `json:"invalidated"`
}

// cachedVector is the immutable per-target pre-processing result, held in
// sparse form: on sparse graphs a target's utility vector has a few hundred
// nonzeros out of n, so an entry costs O(nnz) bytes instead of the O(n) a
// dense vector + candidate list would. The node IDs are gap-coded: a
// utility's support is the target's 2–3-hop neighbourhood, so its
// ascending IDs sit close together and almost every gap is one uvarint
// byte. The utilities are level-coded when they take at most 256 distinct
// values: the paper's path-count utilities are small integers (a
// common-neighbour support of ~1,000 nodes has ~16 distinct counts), so a
// one-byte code into a short table of levels replaces the 8 B float64 per
// node, and decoding returns the very float64 the kernel produced. The
// slices are shared between the cache and all readers and must never be
// mutated after insertion.
// umax == 0 records a negative result (the target has no positive-utility
// candidate), so repeated requests for hopeless targets are served without
// a graph scan too.
type cachedVector struct {
	// ids holds the candidate node IDs with nonzero utility, ascending and
	// gap-coded; (code, val) the matching utilities under package stream's
	// convention, as stream.Encode gathered them from the utility's
	// kernel: with code non-nil, val holds the at most 256 ascending
	// distinct utilities and entry j's is val[code[j]]; with code nil, val
	// holds one per node.
	ids  stream.IDs
	code []uint8
	val  []float64
	// umax is the maximum utility (R_best's score).
	umax float64
	// ncand is the total candidate-domain size: the support's nonzeros
	// plus the implicit zero-utility candidates. A zero-tail rank maps
	// back to a node ID through the target's out-row and the support (see
	// streamComplementSelect).
	ncand int
	// cdf is the exponential mechanism's sparse cumulative-weight form
	// (nil for other mechanisms): one prefix sum per 32 support entries,
	// with its Code and Val aliasing code and val; see mechanism.SparseCDF.
	cdf *mechanism.SparseCDF
}

// sparseVec is the mechanism-facing view of the cached entry.
func (cv *cachedVector) sparseVec() mechanism.SparseVec {
	return mechanism.SparseVec{Code: cv.code, Val: cv.val, N: cv.ncand}
}

// slice is the entry's support as a Scorer.
func (cv *cachedVector) slice() stream.Slice {
	return stream.Slice{IDs: cv.ids, Code: cv.code, Val: cv.val}
}

// at returns support entry j's utility.
func (cv *cachedVector) at(j int) float64 { return stream.At(cv.code, cv.val, j) }

// values returns the support's utilities decoded, one per node, for the
// cold readers that take a plain slice.
func (cv *cachedVector) values() []float64 {
	if cv.code == nil {
		return cv.val
	}
	out := make([]float64, len(cv.code))
	for j, c := range cv.code {
		out[j] = cv.val[c]
	}
	return out
}

// streamPick converts a cached CDF draw into the streamed pick form, reading
// a support pick's node ID (decoding at most 31 gaps) and utility off the
// cached entry.
func (cv *cachedVector) streamPick(p mechanism.Pick) mechanism.StreamPick {
	if p.IsTail() {
		return mechanism.StreamPick{IsTail: true, Tail: p.Tail}
	}
	return mechanism.StreamPick{Node: cv.ids.At(p.Support), Util: cv.at(p.Support)}
}

// bytes approximates the entry's resident footprint, reported through
// CacheStats for capacity planning: the struct (four slice headers and
// three 8-byte fields), the gap-coded node IDs with their block offsets,
// codes, levels or per-node utilities, and the CDF. code and val are
// counted once: the CDF aliases them, and cdf.Bytes counts only the block
// sums.
func (cv *cachedVector) bytes() int {
	b := 120 + cv.ids.Bytes() + len(cv.code) + 8*len(cv.val)
	if cv.cdf != nil {
		b += cv.cdf.Bytes()
	}
	return b
}

type cacheKey struct {
	epoch  uint64
	target int
}

type cacheEntry struct {
	key cacheKey
	val *cachedVector
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recently used
	cap     int
	// bytes is the running footprint of the shard's entries, maintained on
	// insert/refresh/evict so stats() stays O(1) per shard instead of
	// walking the LRU under the lock.
	bytes int64
}

// detach removes el from the LRU and the byte gauge — everything but the
// entries map, whose key the caller owns (it may already have been deleted
// or re-pointed during a re-key).
func (s *cacheShard) detach(el *list.Element) {
	s.lru.Remove(el)
	s.bytes -= int64(el.Value.(*cacheEntry).val.bytes())
}

// vectorCache is a sharded, epoch-keyed LRU cache of cachedVector values.
type vectorCache struct {
	shards [cacheShardCount]cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
	// retained / invalidated are the cumulative swap-time counters behind
	// CacheStats.Retained / .Invalidated.
	retained    atomic.Uint64
	invalidated atomic.Uint64
	cap         int
}

// newVectorCache builds a cache honoring exactly the requested entry cap:
// the cap is distributed across the 16 shards with the remainder spread one
// entry each over the first size%16 shards, so WithCache(100) admits 100
// entries, not 112. Caps below the shard count leave some shards at zero —
// targets hashing there are simply never cached.
func newVectorCache(size int) *vectorCache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	perShard, rem := size/cacheShardCount, size%cacheShardCount
	c := &vectorCache{cap: size}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*list.Element)
		c.shards[i].cap = perShard
		if i < rem {
			c.shards[i].cap++
		}
	}
	return c
}

func (c *vectorCache) shard(target int) *cacheShard {
	return &c.shards[uint(target)&(cacheShardCount-1)]
}

// get returns the cached pre-processing result for (epoch, target), if any.
func (c *vectorCache) get(epoch uint64, target int) (*cachedVector, bool) {
	s := c.shard(target)
	key := cacheKey{epoch: epoch, target: target}
	s.mu.Lock()
	el, ok := s.entries[key]
	var val *cachedVector
	if ok {
		s.lru.MoveToFront(el)
		// Read the value inside the critical section: put refreshes
		// entries in place, so touching el after unlock would race.
		val = el.Value.(*cacheEntry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// put inserts (or refreshes) the entry, evicting the least recently used
// entry of the shard when it is full.
func (c *vectorCache) put(epoch uint64, target int, val *cachedVector) {
	s := c.shard(target)
	key := cacheKey{epoch: epoch, target: target}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap == 0 {
		// Possible when the configured cap is below the shard count; this
		// shard admits nothing so the cache never exceeds the requested cap.
		return
	}
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		s.bytes += int64(val.bytes()) - int64(ent.val.bytes())
		ent.val = val
		s.lru.MoveToFront(el)
		return
	}
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		ent := oldest.Value.(*cacheEntry)
		delete(s.entries, ent.key)
		s.detach(oldest)
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, val: val})
	s.bytes += int64(val.bytes())
}

// advance transitions the cache from one snapshot epoch to the next. aff
// describes what the swap's delta batch may have touched (see invalidate.go);
// nil means "no delta information — flush everything". With aff non-nil,
// entries of fromEpoch whose target lies outside aff's radius-expanded
// touched set survive the swap re-keyed to toEpoch, keeping their LRU
// position and byte accounting. Everything else (touched targets plus
// residue of even older epochs) is removed on the spot, so stats stop
// counting dead entries the moment they become unusable instead of waiting
// for LRU pressure.
//
// Each shard is processed atomically under its own lock, so a concurrent put
// of a touched target at fromEpoch cannot slip in after the sweep and
// linger. A put at toEpoch racing ahead of the sweep is fine — it was
// computed from the new snapState — and on a re-key collision with such an
// entry the fresh one wins. The carried copy is then counted as neither
// retained nor invalidated: the target keeps a bit-identical entry.
//
// The sweep re-keys while ranging over the entries map. That is well
// defined: an entry created during iteration may or may not be produced,
// and a produced toEpoch entry is skipped.
func (c *vectorCache) advance(fromEpoch, toEpoch uint64, aff *affectedSet) {
	var retained, invalidated uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if key.epoch == toEpoch {
				continue
			}
			delete(s.entries, key)
			if aff == nil || key.epoch != fromEpoch || aff.has(key.target) {
				s.detach(el)
				invalidated++
				continue
			}
			key.epoch = toEpoch
			if _, exists := s.entries[key]; exists {
				s.detach(el)
				continue
			}
			el.Value.(*cacheEntry).key = key
			s.entries[key] = el
			retained++
		}
		s.mu.Unlock()
	}
	c.retained.Add(retained)
	c.invalidated.Add(invalidated)
}

// stats gathers a point-in-time snapshot across all shards.
func (c *vectorCache) stats() CacheStats {
	st := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Capacity:    c.cap,
		Retained:    c.retained.Load(),
		Invalidated: c.invalidated.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
