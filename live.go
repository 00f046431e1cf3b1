package socialrec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/fault"
	"socialrec/internal/graph"
	"socialrec/internal/retry"
	"socialrec/internal/wal"
)

// Live graph mutations: the paper's setting is a live social network whose
// edges arrive continuously, so a Recommender can optionally retain a
// concurrency-safe mutable copy of its graph (WithLiveMutations). Writers
// append AddEdge/RemoveEdge/AddNode deltas to an internal journal while
// readers keep serving from the current immutable snapshot; a background
// rebuilder debounces the journal and atomically swaps in a fresh snapState
// — patched incrementally for small batches — advancing the cache epoch.
// This swap is the only way a Recommender's snapshot ever changes.
//
// Why this is DP-safe: a mutation changes the *input* graph, not the
// mechanism. Every recommendation is ε-differentially private with respect
// to the snapshot it was computed over, because the privacy-bearing noise is
// drawn fresh per request after the deterministic pre-processing stage;
// applying deltas is pre-processing of the next snapshot, not perturbation
// of any released output. Budget accounting is likewise unchanged — each
// served recommendation still spends ε against whatever snapshot served it.

// Defaults for the live rebuild knobs.
const (
	// DefaultRebuildInterval is the debounce interval of the background
	// rebuilder when WithRebuildInterval is not given.
	DefaultRebuildInterval = 100 * time.Millisecond
	// DefaultMaxPendingDeltas is the pending-delta count that forces an
	// immediate rebuild when WithMaxPendingDeltas is not given.
	DefaultMaxPendingDeltas = 1024
)

// liveState is the Recommender's mutable-graph side: the journaling graph
// wrapper, the rebuild knobs, and the background rebuilder's lifecycle.
type liveState struct {
	// rebuildMu serializes rebuilds, the only writers of the Recommender's
	// state after construction; readers never take it.
	rebuildMu sync.Mutex

	mut        *graph.MutableGraph
	interval   time.Duration
	maxPending int

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	rebuilds    atomic.Uint64
	incremental atomic.Uint64

	// forceFull is set (under rebuildMu) when a rebuild failed after the
	// journal was drained, losing the incremental basis; the next rebuild
	// must re-snapshot from the full graph, even with nothing pending, since
	// the drained edges are in no served snapshot yet. Atomic so the
	// background loop can read it without the lock.
	forceFull atomic.Bool

	// drainedLSN (under rebuildMu) is the WAL sequence number of the last
	// drained delta. Journal appends and WAL appends happen in the same
	// mutation critical section, so each drain of k deltas advances it by
	// exactly k; a successfully installed snapshot then covers the WAL up
	// to this mark. Zero when no WAL is configured.
	drainedLSN uint64

	closeOnce sync.Once
}

// LiveStats is a point-in-time snapshot of the live-mutation subsystem,
// exposed for operational monitoring (recserver's /healthz).
type LiveStats struct {
	// SnapshotVersion is the epoch of the snapshot currently serving reads;
	// it increments on every rebuild.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// PendingDeltas is the number of journaled mutations not yet folded
	// into the serving snapshot.
	PendingDeltas int `json:"pending_deltas"`
	// Rebuilds counts snapshot swaps performed by Rebuild.
	Rebuilds uint64 `json:"rebuilds"`
	// IncrementalRebuilds counts the subset of Rebuilds that took the
	// CSR patch path instead of a from-scratch snapshot.
	IncrementalRebuilds uint64 `json:"incremental_rebuilds"`
	// Nodes and Edges describe the current mutable graph (which may be
	// ahead of the serving snapshot by PendingDeltas mutations).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// SnapshotsPersisted and PersistErrors count the atomic snapshot-file
	// writes performed after swaps when WithSnapshotPersist is configured.
	SnapshotsPersisted uint64 `json:"snapshots_persisted"`
	PersistErrors      uint64 `json:"persist_errors"`
	// WAL reports the write-ahead log's gauges; nil unless WithWAL.
	WAL *WALStats `json:"wal,omitempty"`
	// Degraded maps persistently failing subsystems to their last error;
	// nil when healthy. Serving continues from the last good snapshot
	// while any entry is present.
	Degraded map[string]string `json:"degraded,omitempty"`
}

// AddEdge inserts the edge u->v (or {u,v} for undirected graphs) into the
// live graph. The edge becomes visible to readers at the next snapshot
// rebuild. Returns ErrNotLive unless the Recommender was built with live
// mutations, and the graph-layer error (ErrDuplicateEdge, ErrNodeRange,
// ErrSelfLoop) on invalid input.
func (r *Recommender) AddEdge(u, v int) error {
	lv := r.live
	if lv == nil {
		return ErrNotLive
	}
	if err := lv.mut.AddEdge(u, v); err != nil {
		return err
	}
	r.maybeKick(lv)
	return nil
}

// RemoveEdge deletes the edge u->v (or {u,v}) from the live graph; see
// AddEdge for visibility and errors (ErrMissingEdge when absent).
func (r *Recommender) RemoveEdge(u, v int) error {
	lv := r.live
	if lv == nil {
		return ErrNotLive
	}
	if err := lv.mut.RemoveEdge(u, v); err != nil {
		return err
	}
	r.maybeKick(lv)
	return nil
}

// AddNode appends a new isolated node to the live graph and returns its ID,
// or -1 and an error: 0 is a valid node ID, so callers that skip the error
// check fail loudly on the out-of-range -1 instead of silently mutating
// node 0. Returns ErrNotLive unless live mutations are enabled.
func (r *Recommender) AddNode() (int, error) {
	lv := r.live
	if lv == nil {
		return -1, ErrNotLive
	}
	id, err := lv.mut.AddNode()
	if err != nil {
		return -1, err
	}
	r.maybeKick(lv)
	return id, nil
}

// maybeKick wakes the background rebuilder immediately when the journal has
// outgrown the configured pending-delta bound.
func (r *Recommender) maybeKick(lv *liveState) {
	if lv.mut.Pending() >= lv.maxPending {
		select {
		case lv.kick <- struct{}{}:
		default:
		}
	}
}

// PendingDeltas returns the number of live mutations not yet reflected in
// the serving snapshot (0 when live mutations are disabled).
func (r *Recommender) PendingDeltas() int {
	lv := r.live
	if lv == nil {
		return 0
	}
	return lv.mut.Pending()
}

// SnapshotVersion returns the epoch of the snapshot currently serving
// reads. It increments on every snapshot swap a Rebuild (or the background
// rebuilder) performs, so operators can verify that mutations are being
// folded in; without live mutations it stays 0.
func (r *Recommender) SnapshotVersion() uint64 { return r.state.Load().epoch }

// LiveStats reports the live-mutation counters; ok is false when live
// mutations are disabled.
func (r *Recommender) LiveStats() (stats LiveStats, ok bool) {
	lv := r.live
	if lv == nil {
		return LiveStats{}, false
	}
	stats = LiveStats{
		SnapshotVersion:     r.SnapshotVersion(),
		PendingDeltas:       lv.mut.Pending(),
		Rebuilds:            lv.rebuilds.Load(),
		IncrementalRebuilds: lv.incremental.Load(),
		Nodes:               lv.mut.NumNodes(),
		Edges:               lv.mut.NumEdges(),
		SnapshotsPersisted:  r.persists.Load(),
		PersistErrors:       r.persistErrs.Load(),
		Degraded:            r.health.snapshot(),
	}
	if r.wal != nil {
		ws := r.wal.Stats()
		stats.WAL = &WALStats{
			LastLSN:           ws.LastLSN,
			CoveredLSN:        r.state.Load().walLSN,
			Segments:          ws.Segments,
			TruncatedSegments: ws.TruncatedSegments,
			Fsync:             ws.Policy,
		}
	}
	return stats, true
}

// CurrentGraph returns a deep copy of the live graph, including mutations
// not yet folded into the serving snapshot. It returns ErrNotLive when live
// mutations are disabled.
func (r *Recommender) CurrentGraph() (*Graph, error) {
	lv := r.live
	if lv == nil {
		return nil, ErrNotLive
	}
	return lv.mut.Clone(), nil
}

// Rebuild synchronously folds every pending delta into a new serving
// snapshot and swaps it in atomically, advancing the cache epoch. Small
// batches take the incremental CSR patch path; batches large relative to
// the snapshot fall back to a from-scratch build. It is a no-op when
// nothing is pending, and safe to call concurrently with reads, writes, and
// the background rebuilder. Returns ErrNotLive when live mutations are
// disabled.
func (r *Recommender) Rebuild() error {
	lv := r.live
	if lv == nil {
		return ErrNotLive
	}
	st, err := r.rebuildLocked(lv)
	if err != nil || st == nil {
		return err
	}
	r.persistSwapped(st)
	return nil
}

// rebuildLocked performs the swap under lv.rebuildMu and returns the new
// state (nil when nothing was pending and no failed rebuild awaits a
// retry). Persistence deliberately happens outside the lock: a
// multi-second disk write must not stall subsequent swaps.
func (r *Recommender) rebuildLocked(lv *liveState) (*snapState, error) {
	lv.rebuildMu.Lock()
	defer lv.rebuildMu.Unlock()
	pending := lv.mut.Pending()
	if pending == 0 && !lv.forceFull.Load() {
		return nil, nil
	}
	cur := r.state.Load()
	var snap *graph.CSR
	var deltas []graph.Delta
	// When a previous rebuild drained the journal but failed to install its
	// snapshot, the deltas drained now are not the complete diff between
	// cur.snap and the recovery snapshot — so the cache sweep below must not
	// trust them for retention.
	basisLost := lv.forceFull.Load()
	incremental := !basisLost && patchWorthwhile(pending, cur.snap)
	if incremental {
		deltas = lv.mut.Drain()
		// Patch copies touched and untouched rows out of whichever store
		// backs the current snapshot (heap or mmap), so the overlay is a
		// plain heap CSR with no ties to a mapping.
		snap = cur.snap.Patch(deltas)
	} else {
		// Even on the from-scratch path the drained batch is still exactly
		// snapshot_k - snapshot_{k-1} (the Drain invariant), so it remains a
		// valid basis for delta-aware cache retention unless basisLost.
		snap, deltas = lv.mut.SnapshotAndDrain()
	}
	drained := len(deltas)
	// Each drained delta had a WAL record appended in the same critical
	// section, so the drain advances the covered mark by exactly drained.
	// This stands even if the build below fails: the drained deltas are
	// already in the mutable graph, and the forceFull recovery snapshot
	// re-captures them wholesale.
	lv.drainedLSN += uint64(drained)
	var st *snapState
	err := retry.Default.Do(context.Background(), func() error {
		if err := fault.Inject("live.rebuild"); err != nil {
			return err
		}
		var berr error
		st, berr = r.buildStateFromSnap(snap, cur.epoch+1)
		return berr
	})
	if err != nil {
		// The journal was drained but no snapshot was installed: the
		// incremental basis is lost, so the next attempt must re-snapshot
		// the full graph (which is always self-consistent). Serving
		// continues from the last good snapshot; /healthz shows degraded.
		lv.forceFull.Store(true)
		r.health.set(subsystemRebuild, err)
		return nil, err
	}
	lv.forceFull.Store(false)
	r.health.clear(subsystemRebuild)
	st.walLSN = lv.drainedLSN
	// Sweep the cache before publishing the new state so retained entries
	// are warm the instant readers see the new epoch. A reader that races a
	// put at cur.epoch after its shard was swept merely leaves residue the
	// next sweep removes; one that puts at st.epoch early computed from st
	// and is already correct.
	if c := r.cache; c != nil {
		c.advance(cur.epoch, st.epoch, r.affectedByBatch(cur, st, deltas, basisLost))
	}
	r.state.Store(st)
	lv.rebuilds.Add(1)
	if incremental {
		lv.incremental.Add(1)
	}
	return st, nil
}

// persistSwapped writes a swapped-in snapshot to the WithSnapshotPersist
// path, atomically via temp file + rename, retrying transient failures
// with bounded backoff. Writes are serialized by their own mutex — never
// by rebuildMu, so a slow disk cannot stall swaps — and the epoch guard
// keeps a delayed older write from replacing a newer snapshot already on
// disk. Persistence is best-effort: a full disk must not take down
// serving, so exhausted retries only bump a counter and mark the
// subsystem degraded. A durably persisted snapshot covers a prefix of the
// WAL, which is then truncated: replay-on-open only ever needs records
// newer than the snapshot it starts from.
func (r *Recommender) persistSwapped(st *snapState) {
	if r.persistPath == "" {
		return
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	if st.epoch < r.persistEpoch {
		return // a newer snapshot is already persisted
	}
	err := retry.Default.Do(context.Background(), func() error {
		return graph.WriteSnapshotFile(r.persistPath, st.snap)
	})
	if err != nil {
		r.persistErrs.Add(1)
		r.health.set(subsystemPersist, err)
		return
	}
	r.health.clear(subsystemPersist)
	r.persistEpoch = st.epoch
	r.persists.Add(1)
	if r.wal != nil && st.walLSN > 0 {
		// WriteSnapshotFile fsyncs file and directory, so the records the
		// snapshot covers are no longer needed for recovery.
		if terr := r.wal.TruncateTo(st.walLSN); terr != nil && !errors.Is(terr, wal.ErrClosed) {
			r.health.set(subsystemWAL, terr)
		}
	}
}

// patchWorthwhile decides between the incremental patch and a from-scratch
// snapshot: patching copies the adjacency arrays wholesale either way, so
// it wins until the edit count is a sizable fraction of the snapshot.
func patchWorthwhile(pending int, snap graph.Store) bool {
	return pending*4 <= snap.NumNodes()+snap.NumArcs()+64
}

// Close stops the background rebuilder goroutine, if any, waits for it to
// exit, syncs and closes the write-ahead log, and releases the snapshot
// file the Recommender owns when it was built with WithSnapshotFile.
// Pending deltas are left journaled in memory but remain recoverable from
// the WAL when one is configured; call Rebuild first if they must be
// folded into the serving snapshot. Close is idempotent. For
// memory-mapped snapshots, call Close only after in-flight requests have
// drained: unmapping while a request still scans the mapping is unsafe.
func (r *Recommender) Close() error {
	if lv := r.live; lv != nil {
		lv.closeOnce.Do(func() {
			close(lv.stop)
			<-lv.done
		})
	}
	var err error
	if r.wal != nil {
		err = r.wal.Close()
	}
	if r.ownedSnap != nil {
		if cerr := r.ownedSnap.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// rebuildLoop is the background debouncer: every interval tick — or
// immediately when a writer kicks it past the pending-delta bound — it
// folds pending deltas into a new snapshot. Rebuild errors are retained for
// the next attempt via the forceFull fallback rather than crashing the
// serving process.
func (r *Recommender) rebuildLoop(lv *liveState) {
	defer close(lv.done)
	ticker := time.NewTicker(lv.interval)
	defer ticker.Stop()
	for {
		select {
		case <-lv.stop:
			return
		case <-ticker.C:
		case <-lv.kick:
		}
		if lv.mut.Pending() > 0 || lv.forceFull.Load() {
			r.Rebuild() //nolint:errcheck // retried next tick via forceFull
		}
	}
}
