package socialrec

import (
	"fmt"
	"time"
)

// Option configures a Recommender at construction time.
type Option func(*Recommender) error

// WithEpsilon sets the differential privacy parameter ε. Smaller ε is more
// private; the paper evaluates 0.5, 1, and the lenient 3.
func WithEpsilon(eps float64) Option {
	return func(r *Recommender) error {
		if !(eps > 0) {
			return fmt.Errorf("socialrec: WithEpsilon(%g): epsilon must be positive", eps)
		}
		r.epsilon = eps
		return nil
	}
}

// WithUtility sets the link-analysis utility function.
func WithUtility(u UtilityFunction) Option {
	return func(r *Recommender) error {
		if u == nil {
			return fmt.Errorf("socialrec: WithUtility(nil)")
		}
		r.util = u
		return nil
	}
}

// WithMechanism selects the private selection mechanism.
func WithMechanism(k MechanismKind) Option {
	return func(r *Recommender) error {
		switch k {
		case MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone:
			r.kind = k
			return nil
		default:
			return fmt.Errorf("socialrec: WithMechanism(%v): unknown mechanism", k)
		}
	}
}

// WithSeed fixes the root seed for the Recommender's internal randomness,
// making Recommend deterministic per target. Production deployments should
// use a fresh unpredictable seed; determinism is for tests and experiments.
func WithSeed(seed int64) Option {
	return func(r *Recommender) error {
		r.seed = seed
		return nil
	}
}

// WithCache enables the utility-vector cache with the given entry cap
// (DefaultCacheSize when size <= 0); it is the one way to turn the cache
// on. The cache memoizes the deterministic pre-noise stage of serving and
// leaves every mechanism's output distribution — and therefore the ε-DP
// guarantee — unchanged; see cache.go.
func WithCache(size int) Option {
	return func(r *Recommender) error {
		r.cache = newVectorCache(size)
		return nil
	}
}

// WithDeltaInvalidation has no effect: every live Rebuild of a cached
// Recommender retains the entries its delta batch provably did not touch
// (see invalidate.go).
//
// Deprecated: retention is always on; deleted with ROADMAP item 9.
func WithDeltaInvalidation() Option {
	return func(*Recommender) error { return nil }
}

// WithLiveMutations enables the streaming mutation API (AddEdge,
// RemoveEdge, AddNode, Rebuild): the Recommender logs accepted mutations
// on top of its serving snapshot, keeping no second copy of the graph, and
// starts a background rebuilder that debounces the log into patched,
// atomically swapped snapshots. Rebuild
// cadence uses DefaultRebuildInterval and DefaultMaxPendingDeltas unless
// overridden with WithRebuildInterval / WithMaxPendingDeltas. Call Close to
// stop the rebuilder when discarding the Recommender.
func WithLiveMutations() Option {
	return func(r *Recommender) error {
		r.pendingLive = true
		return nil
	}
}

// WithRebuildInterval sets the background rebuilder's debounce interval:
// pending deltas are folded into a new serving snapshot at most once per
// interval (plus immediately when the WithMaxPendingDeltas bound is hit).
// It implies WithLiveMutations.
func WithRebuildInterval(d time.Duration) Option {
	return func(r *Recommender) error {
		if d <= 0 {
			return fmt.Errorf("socialrec: WithRebuildInterval(%v): interval must be positive", d)
		}
		r.pendingLive = true
		r.pendingInterval = d
		return nil
	}
}

// WithMaxPendingDeltas sets the journal size that triggers an immediate
// out-of-band rebuild, bounding how stale the serving snapshot can get
// under write bursts. It implies WithLiveMutations.
func WithMaxPendingDeltas(n int) Option {
	return func(r *Recommender) error {
		if n <= 0 {
			return fmt.Errorf("socialrec: WithMaxPendingDeltas(%d): bound must be positive", n)
		}
		r.pendingLive = true
		r.pendingMaxPending = n
		return nil
	}
}

// WithSnapshotFile makes NewRecommender cold-start from the .srsnap
// snapshot file at path instead of an in-memory graph: pass nil as the
// graph argument. The file is memory-mapped where the platform allows,
// serving zero-copy out of the page cache, and decoded into the heap
// elsewhere or when mapping fails; either way the draws are identical. The
// Recommender owns the opened file and releases it in Close. Combine with
// WithLiveMutations to accept streaming writes on top of the loaded
// snapshot: nothing is copied out of the file at construction, and the
// Recommender serves from it until its first rebuild swaps in a patched
// heap snapshot.
func WithSnapshotFile(path string) Option {
	return func(r *Recommender) error {
		if path == "" {
			return fmt.Errorf("socialrec: WithSnapshotFile(%q): empty path", path)
		}
		r.pendingSnapshotFile = path
		return nil
	}
}

// WithSnapshotPersist makes the Recommender persist every snapshot a live
// Rebuild swaps in to the .srsnap file at path, written atomically (temp
// file + rename) so readers and crashes only ever observe a complete
// snapshot. A process restarted with WithSnapshotFile(path) then resumes
// from the last persisted graph instead of its original input. Without
// live mutations no swap happens, so nothing is written. Persistence
// failures never fail the swap; they are counted in
// LiveStats.PersistErrors.
func WithSnapshotPersist(path string) Option {
	return func(r *Recommender) error {
		if path == "" {
			return fmt.Errorf("socialrec: WithSnapshotPersist(%q): empty path", path)
		}
		r.persistPath = path
		return nil
	}
}

// WithWAL makes every accepted mutation crash-safe: before AddEdge,
// RemoveEdge, or AddNode acknowledges, the mutation is appended to a
// segmented, checksummed write-ahead log in dir, and on construction the
// surviving log is replayed on top of the input graph (or snapshot file),
// so a restart after kill -9 reconstructs every acknowledged mutation.
// The log is truncated once a persisted snapshot (WithSnapshotPersist)
// durably covers its records; without snapshot persistence the log only
// grows. Implies WithLiveMutations. The fsync policy defaults to
// FsyncAlways; see WithWALSync.
func WithWAL(dir string) Option {
	return func(r *Recommender) error {
		if dir == "" {
			return fmt.Errorf("socialrec: WithWAL(%q): empty directory", dir)
		}
		r.pendingLive = true
		r.pendingWALDir = dir
		return nil
	}
}

// WithWALSync selects the WAL fsync policy, trading durability against
// mutation latency: FsyncAlways (default) survives power loss,
// FsyncInterval survives process crashes but can lose up to ~50ms of
// acknowledged mutations to an OS crash, FsyncOff is for tests and bulk
// loads. Only meaningful together with WithWAL.
func WithWALSync(mode FsyncMode) Option {
	return func(r *Recommender) error {
		switch mode {
		case FsyncAlways, FsyncInterval, FsyncOff:
			r.pendingFsync = mode
			r.pendingFsyncSet = true
			return nil
		default:
			return fmt.Errorf("socialrec: WithWALSync(%v): unknown mode", mode)
		}
	}
}

// NonPrivate disables privacy protection entirely (R_best). It exists so
// that examples and benchmarks can report the non-private baseline; never
// ship it to users whose graph edges are sensitive.
func NonPrivate() Option {
	return func(r *Recommender) error {
		r.kind = MechanismNone
		return nil
	}
}
