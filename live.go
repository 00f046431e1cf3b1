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
// edges arrive continuously, so a Recommender can optionally accept writes
// (WithLiveMutations). Its live graph is the serving snapshot plus the
// ordered log of mutations accepted since it (graph.MutableGraph); no
// second copy of the graph is kept. Writers append AddEdge/RemoveEdge/
// AddNode deltas to the log while readers keep serving from the snapshot;
// a background rebuilder debounces the log, patches the snapshot with it
// and atomically swaps in the resulting snapState, advancing the cache
// epoch. This swap is the only way a Recommender's snapshot ever changes.
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

// liveState is the Recommender's mutable-graph side: the live graph, the
// rebuild knobs, and the background rebuilder's lifecycle.
type liveState struct {
	// rebuildMu serializes rebuilds, the only writers of the Recommender's
	// state after construction; readers never take it.
	rebuildMu sync.Mutex

	// mut's base is always the serving snapshot, state.snap: a rebuild
	// advances it onto the snapshot it swaps in.
	mut        *graph.MutableGraph
	interval   time.Duration
	maxPending int

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	rebuilds atomic.Uint64

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
	// IncrementalRebuilds equals Rebuilds: every rebuild patches the
	// serving snapshot with the pending log.
	//
	// Deprecated: every rebuild patches; deleted with ROADMAP item 9.
	IncrementalRebuilds uint64 `json:"incremental_rebuilds"`
	// Nodes and Edges describe the live graph (which may be ahead of the
	// serving snapshot by PendingDeltas mutations).
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
	rebuilds := lv.rebuilds.Load()
	stats = LiveStats{
		SnapshotVersion:     r.SnapshotVersion(),
		PendingDeltas:       lv.mut.Pending(),
		Rebuilds:            rebuilds,
		IncrementalRebuilds: rebuilds,
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

// CurrentGraph returns a copy of the live graph, including mutations not
// yet folded into the serving snapshot: the snapshot patched with the
// pending log. It returns ErrNotLive when live mutations are disabled.
func (r *Recommender) CurrentGraph() (*Graph, error) {
	lv := r.live
	if lv == nil {
		return nil, ErrNotLive
	}
	base, deltas := lv.mut.Batch()
	return graph.FromStore(base.Patch(deltas))
}

// Rebuild synchronously patches every pending delta into a new serving
// snapshot and swaps it in atomically, advancing the cache epoch. It is a
// no-op when nothing is pending, and safe to call concurrently with reads,
// writes, and the background rebuilder. When it fails, the deltas stay
// pending and the next Rebuild retries them together with newer ones.
// Returns ErrNotLive when live mutations are disabled.
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
// state (nil when nothing was pending). Persistence deliberately happens
// outside the lock: a multi-second disk write must not stall subsequent
// swaps.
func (r *Recommender) rebuildLocked(lv *liveState) (*snapState, error) {
	lv.rebuildMu.Lock()
	defer lv.rebuildMu.Unlock()
	// base is cur.snap: only this function moves either, under rebuildMu.
	base, deltas := lv.mut.Batch()
	if len(deltas) == 0 {
		return nil, nil
	}
	cur := r.state.Load()
	// Patch copies touched and untouched rows out of whichever store backs
	// the current snapshot (heap or mmap), so the result is a plain heap
	// CSR with no ties to a mapping.
	snap := base.Patch(deltas)
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
		// Nothing is lost: the batch stays pending, and the next attempt
		// patches it again together with any newer deltas. Serving
		// continues from the last good snapshot; /healthz shows degraded.
		r.health.set(subsystemRebuild, err)
		return nil, err
	}
	r.health.clear(subsystemRebuild)
	// Each logged delta had its WAL record appended in the same critical
	// section, in log order, so the batch advances the covered mark by
	// exactly its length.
	st.walLSN = cur.walLSN + uint64(len(deltas))
	// Sweep the cache before publishing the new state so retained entries
	// are warm the instant readers see the new epoch. A reader that races a
	// put at cur.epoch after its shard was swept merely leaves residue the
	// next sweep removes; one that puts at st.epoch early computed from st
	// and is already correct.
	if c := r.cache; c != nil {
		c.advance(cur.epoch, st.epoch, r.affectedByBatch(cur, st, deltas))
	}
	r.state.Store(st)
	lv.mut.Advance(st.snap, len(deltas))
	lv.rebuilds.Add(1)
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

// Close stops the background rebuilder goroutine, if any, waits for it to
// exit, syncs and closes the write-ahead log, and releases the snapshot
// file the Recommender owns when it was built with WithSnapshotFile.
// Pending deltas are left journaled in memory but remain recoverable from
// the WAL when one is configured; call Rebuild first if they must be
// folded into the serving snapshot. Close is idempotent. For
// memory-mapped snapshots, call Close only after in-flight requests and
// mutations have drained: unmapping while a request still scans the
// mapping is unsafe, and until the first rebuild a mutation is checked
// against the mapping too.
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
// folds pending deltas into a new snapshot. A failed rebuild leaves its
// deltas pending, so the next tick retries them rather than crashing the
// serving process.
func (r *Recommender) rebuildLoop(lv *liveState) {
	defer close(lv.done)
	ticker := time.NewTicker(lv.interval)
	defer ticker.Stop()
	for {
		due := 1
		select {
		case <-lv.stop:
			return
		case <-ticker.C:
		case <-lv.kick:
			// The batch of a rebuild in progress stays pending until it is
			// swapped in, so writes during it send kicks the swap makes
			// stale: act on a kick only while the bound is still reached.
			due = lv.maxPending
		}
		if lv.mut.Pending() >= due {
			r.Rebuild() //nolint:errcheck // the batch stays pending; retried next tick
		}
	}
}
