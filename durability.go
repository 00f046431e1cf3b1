package socialrec

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"socialrec/internal/graph"
	"socialrec/internal/wal"
)

// Durability wiring: WithWAL journals every accepted mutation to a
// crash-safe write-ahead log before the mutation API acknowledges it, and
// replays the log on construction so a restart — graceful or kill -9 —
// reconstructs every acknowledged mutation. See doc.go's "Durability &
// failure model" section for the full contract.

// FsyncMode selects when WAL appends are flushed to stable storage; see
// the constants for the durability each mode buys.
type FsyncMode int

const (
	// FsyncAlways fsyncs before every mutation is acknowledged: no
	// acknowledged mutation is ever lost, even to a power cut. The
	// default, and the only mode under which the WAL's ack contract is
	// unconditional.
	FsyncAlways FsyncMode = iota
	// FsyncInterval acknowledges from the OS page cache and fsyncs on a
	// short background cadence: a process crash loses nothing, an
	// OS-level crash can lose up to one interval of acknowledged
	// mutations.
	FsyncInterval
	// FsyncOff never fsyncs explicitly; durability rides on OS
	// writeback. For tests and bulk loads only.
	FsyncOff
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// ParseFsyncMode parses "always", "interval", or "off" (the recserve
// -fsync flag values).
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "none":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("socialrec: unknown fsync mode %q (want always, interval, or off)", s)
	}
}

func (m FsyncMode) walPolicy() wal.SyncPolicy {
	switch m {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncOff:
		return wal.SyncOff
	default:
		return wal.SyncAlways
	}
}

// WALStats mirrors the log's gauges into LiveStats for /healthz.
type WALStats struct {
	// LastLSN is the sequence number of the newest journaled mutation.
	LastLSN uint64 `json:"last_lsn"`
	// CoveredLSN is the newest LSN folded into the serving snapshot;
	// LastLSN - CoveredLSN mutations would replay on restart.
	CoveredLSN uint64 `json:"covered_lsn"`
	// Segments and TruncatedSegments count live and reclaimed log files.
	Segments          int    `json:"segments"`
	TruncatedSegments uint64 `json:"truncated_segments"`
	// Fsync is the configured FsyncMode.
	Fsync string `json:"fsync"`
}

// Subsystem names reported by Degraded.
const (
	subsystemWAL     = "wal"
	subsystemPersist = "snapshot-persist"
	subsystemRebuild = "rebuild"
)

// healthTracker records which subsystems are persistently failing, so the
// serving tier can report "degraded" on /healthz instead of dying. Entries
// are set after retries are exhausted and cleared on the next success.
type healthTracker struct {
	mu      sync.Mutex
	failing map[string]string
}

func (h *healthTracker) set(subsystem string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failing == nil {
		h.failing = make(map[string]string)
	}
	h.failing[subsystem] = err.Error()
}

func (h *healthTracker) clear(subsystem string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.failing, subsystem)
}

func (h *healthTracker) snapshot() map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.failing) == 0 {
		return nil
	}
	out := make(map[string]string, len(h.failing))
	for k, v := range h.failing {
		out[k] = v
	}
	return out
}

// Degraded returns the subsystems currently failing persistently (after
// retries), mapped to their last error — empty or nil when fully healthy.
// A degraded Recommender keeps serving recommendations from its last good
// snapshot; only the named subsystem's function (durable persistence, WAL
// journaling, snapshot rebuilds) is impaired.
func (r *Recommender) Degraded() map[string]string {
	return r.health.snapshot()
}

// walRecord converts a journaled graph delta to its WAL framing.
func walRecord(d graph.Delta) wal.Record {
	return wal.Record{Op: uint8(d.Op), From: int64(d.From), To: int64(d.To)}
}

// replayWALRecord applies one recovered mutation to the live graph.
// Replay is idempotent by construction, which is what lets recovery apply
// the whole surviving log without knowing exactly which prefix the
// snapshot on disk already covers: an AddEdge already present, a
// RemoveEdge already absent, and an AddNode for an existing ID are each
// skipped, and (because per-edge operations alternate add/remove, and
// every operation forces its own postcondition whether applied or
// skipped) the final graph equals the true post-log state. Any other
// failure means the snapshot/WAL pair is inconsistent — e.g. mismatched
// files — and aborts recovery rather than serving a corrupt graph.
func replayWALRecord(m *graph.MutableGraph, rec wal.Record) error {
	switch graph.DeltaOp(rec.Op) {
	case graph.DeltaAddEdge:
		err := m.AddEdge(int(rec.From), int(rec.To))
		if errors.Is(err, graph.ErrDuplicateEdge) {
			return nil
		}
		return err
	case graph.DeltaRemoveEdge:
		err := m.RemoveEdge(int(rec.From), int(rec.To))
		if errors.Is(err, graph.ErrMissingEdge) {
			return nil
		}
		return err
	case graph.DeltaAddNode:
		id, n := int(rec.From), m.NumNodes()
		switch {
		case id < n:
			return nil // snapshot already covers this node
		case id == n:
			_, err := m.AddNode()
			return err
		default:
			return fmt.Errorf("socialrec: WAL add-node %d skips past node count %d (snapshot/WAL mismatch)", id, n)
		}
	default:
		return fmt.Errorf("socialrec: unknown WAL op %d", rec.Op)
	}
}

// replayWAL folds every recovered record into the live graph m, whose base
// is st.snap, in log order, then patches the snapshot once with what the
// records changed. It returns the state over the replayed graph (st itself
// when they change nothing) and leaves m's log empty on its snapshot.
func (r *Recommender) replayWAL(m *graph.MutableGraph, st *snapState, recs []wal.Record) (*snapState, error) {
	for i, rec := range recs {
		if err := replayWALRecord(m, rec); err != nil {
			return nil, fmt.Errorf("socialrec: WAL replay failed at record %d of %d: %w", i+1, len(recs), err)
		}
	}
	base, deltas := m.Batch()
	if len(deltas) == 0 {
		return st, nil
	}
	replayed, err := r.buildStateFromSnap(base.Patch(deltas), st.epoch)
	if err != nil {
		return nil, err
	}
	m.Advance(replayed.snap, len(deltas))
	return replayed, nil
}
