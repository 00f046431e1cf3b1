package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Live-graph support: social graphs are streams, not files. Edges arrive
// continuously while recommendations are being served, so the live graph is
// the serving snapshot plus the ordered log of mutations accepted since it
// (MutableGraph), and the immutable CSR gains an incremental Patch that
// replays that log onto the snapshot without the map-iteration and per-row
// sorting cost of a from-scratch Snapshot. Serving layers patch the log
// periodically (debounced), swap the patched snapshot in atomically and
// advance the live graph onto it; see socialrec's live rebuilder.
// DeltaOp identifies one kind of graph mutation.
type DeltaOp uint8

// The mutation kinds a delta log records.
const (
	// DeltaAddEdge records AddEdge(From, To).
	DeltaAddEdge DeltaOp = iota
	// DeltaRemoveEdge records RemoveEdge(From, To).
	DeltaRemoveEdge
	// DeltaAddNode records AddNode; From holds the new node's ID and To is
	// unused.
	DeltaAddNode
)

// Delta is one journaled graph mutation.
type Delta struct {
	Op       DeltaOp
	From, To int
}

// MutableGraph is a live graph: an immutable base snapshot plus the
// ordered log of mutations accepted since it, safe for concurrent use. A
// mutation is validated against the log's overlay (the presence, after the
// log, of every edge the log touched) and then the base, journaled, and
// appended to the log; nothing is copied. A rebuilder takes the base and
// its log with Batch, patches the one with the other, and moves the base
// forward with Advance once the patched snapshot serves. Until then the
// batch stays in the log, so a failed rebuild loses nothing.
type MutableGraph struct {
	mu      sync.RWMutex
	base    Store
	log     []Delta
	overlay map[Edge]bool
	// nodes and edges count the live graph: the base plus the log.
	nodes, edges int
	journal      JournalFunc
}

// JournalFunc receives each accepted mutation before it is applied, inside
// the mutation critical section. Returning an error vetoes the mutation:
// nothing is appended to the delta log, and the error is returned to the
// mutator. Write-ahead logging hooks in here — a mutation is in the delta
// log if and only if its journal call succeeded, so the log and the
// external journal always agree record-for-record.
type JournalFunc func(Delta) error

// SetJournal installs fn as the mutation journal (nil to remove). It must
// be called before mutations begin; installing it mid-stream would leave
// earlier mutations unjournaled.
func (m *MutableGraph) SetJournal(fn JournalFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journal = fn
}

// NewMutable returns a live graph equal to base, with an empty log.
func NewMutable(base Store) *MutableGraph {
	return &MutableGraph{
		base:    base,
		overlay: make(map[Edge]bool),
		nodes:   base.NumNodes(),
		edges:   base.NumEdges(),
	}
}

// key normalizes an undirected edge to From < To, so both orientations
// share one overlay entry.
func (m *MutableGraph) key(u, v int) Edge {
	if !m.base.Directed() && u > v {
		u, v = v, u
	}
	return Edge{From: u, To: v}
}

// hasEdge reports whether u->v is in the live graph; u and v must be in
// range and m.mu held.
func (m *MutableGraph) hasEdge(u, v int) bool {
	if present, ok := m.overlay[m.key(u, v)]; ok {
		return present
	}
	n := m.base.NumNodes()
	return u < n && v < n && m.base.HasEdge(u, v)
}

// mutateEdge validates an edge mutation with Graph.AddEdge's and
// RemoveEdge's sentinels in their order (range, then self loop for adds,
// then duplicate or missing edge), journals it, and applies it.
func (m *MutableGraph) mutateEdge(op DeltaOp, u, v int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, x := range [2]int{u, v} {
		if x < 0 || x >= m.nodes {
			return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeRange, x, m.nodes)
		}
	}
	add := op == DeltaAddEdge
	if add && u == v {
		return ErrSelfLoop
	}
	if m.hasEdge(u, v) == add {
		if add {
			return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
		}
		return fmt.Errorf("%w: (%d,%d)", ErrMissingEdge, u, v)
	}
	if err := m.record(Delta{Op: op, From: u, To: v}); err != nil {
		return err
	}
	m.overlay[m.key(u, v)] = add
	if add {
		m.edges++
	} else {
		m.edges--
	}
	return nil
}

// record journals d and appends it to the log; m.mu must be held.
func (m *MutableGraph) record(d Delta) error {
	if m.journal != nil {
		if err := m.journal(d); err != nil {
			return err
		}
	}
	m.log = append(m.log, d)
	return nil
}

// AddEdge inserts the edge u->v (or {u,v}) and journals the delta. It
// returns ErrNodeRange, ErrSelfLoop or ErrDuplicateEdge on invalid input,
// in which case nothing is journaled.
func (m *MutableGraph) AddEdge(u, v int) error { return m.mutateEdge(DeltaAddEdge, u, v) }

// RemoveEdge deletes the edge u->v (or {u,v}) and journals the delta. It
// returns ErrNodeRange or ErrMissingEdge on invalid input.
func (m *MutableGraph) RemoveEdge(u, v int) error { return m.mutateEdge(DeltaRemoveEdge, u, v) }

// AddNode appends a new isolated node, journals the delta, and returns the
// new node's ID — or -1 on error, never 0, which is a valid ID. The only
// possible error is a journal veto; node addition itself cannot fail.
func (m *MutableGraph) AddNode() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nodes
	if err := m.record(Delta{Op: DeltaAddNode, From: id}); err != nil {
		return -1, err
	}
	m.nodes++
	return id, nil
}

// Pending returns the number of logged deltas not yet in the base.
func (m *MutableGraph) Pending() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.log)
}

// NumNodes returns the current node count.
func (m *MutableGraph) NumNodes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nodes
}

// NumEdges returns the current edge count.
func (m *MutableGraph) NumEdges() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.edges
}

// Batch returns the base snapshot and the log of every delta accepted
// since it, leaving both in place: base.Patch(log) is the live graph. The
// returned log is never written again, so it may be read after later
// mutations and Advances.
func (m *MutableGraph) Batch() (Store, []Delta) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.base, m.log[:len(m.log):len(m.log)]
}

// Advance makes next, which must equal base.Patch of the log's first k
// deltas, the new base and drops those deltas from the log. Deltas logged
// after the Batch that returned them stay pending. Callers serialize
// Batch/Advance pairs.
func (m *MutableGraph) Advance(next Store, k int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = next
	// A fresh array, so a log handed out by Batch is never overwritten.
	m.log = slices.Clone(m.log[k:])
	m.overlay = make(map[Edge]bool, len(m.log))
	for _, d := range m.log {
		if d.Op != DeltaAddNode {
			m.overlay[m.key(d.From, d.To)] = d.Op == DeltaAddEdge
		}
	}
}

// Patch returns a new CSR equal to c with the delta batch applied. Each
// touched row's edits are folded to their net effect and merged with the
// row once, and untouched rows are copied as they are, so a batch of k
// edits costs O(n + m + k log k) — no map iteration and no per-row
// re-sorting, which is what dominates a from-scratch Snapshot, and no
// per-edit shifting of a hub's row.
//
// The batch must be a valid journal (as produced by MutableGraph): every
// AddEdge absent at its point in the sequence, every RemoveEdge present,
// node IDs in range given prior DeltaAddNode entries. Patch does not
// re-validate; feeding it an inconsistent batch corrupts the result.
func (c *CSR) Patch(deltas []Delta) *CSR {
	if len(deltas) == 0 {
		return c
	}
	n := c.NumNodes()
	var outEdits, inEdits []uint64
	for _, d := range deltas {
		if d.Op == DeltaAddNode {
			n++
			continue
		}
		outEdits = append(outEdits, rowEdit(d.From, d.To))
		if c.directed {
			inEdits = append(inEdits, rowEdit(d.To, d.From))
		} else {
			outEdits = append(outEdits, rowEdit(d.To, d.From))
		}
	}
	out := &CSR{directed: c.directed}
	out.Index, out.Adj = patchAdj(c.Index, c.Adj, n, toggles(outEdits))
	if c.directed {
		out.inIndex, out.inAdj = patchAdj(c.inIndex, c.inAdj, n, toggles(inEdits))
	}
	return out
}

// rowEdit packs an edit of neighbour v in row u into one key that sorts by
// row, then neighbour.
func rowEdit(u, v int) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// toggles sorts a batch's row edits and keeps, once, each one that occurs
// an odd number of times, in place. In a valid journal the edits to one
// (row, neighbour) pair alternate between add and remove, so each flips
// the neighbour's membership in the row: the batch's net effect is to flip
// exactly the pairs it edits an odd number of times.
func toggles(edits []uint64) []uint64 {
	slices.Sort(edits)
	net := edits[:0]
	for i := 0; i < len(edits); {
		j := i + 1
		for j < len(edits) && edits[j] == edits[i] {
			j++
		}
		if (j-i)%2 == 1 {
			net = append(net, edits[i])
		}
		i = j
	}
	return net
}

// patchAdj flips the sorted row edits in one CSR adjacency half: a
// neighbour in its row is removed, one absent is inserted. It grows the
// node count to n.
func patchAdj(index, adj []int32, n int, edits []uint64) ([]int32, []int32) {
	oldN := len(index) - 1
	newIndex := make([]int32, n+1)
	newAdj := make([]int32, 0, len(adj)+len(edits))
	for r := 0; r < n; r++ {
		var src []int32
		if r < oldN {
			src = adj[index[r]:index[r+1]]
		}
		k := 0
		for k < len(edits) && int(edits[k]>>32) == r {
			k++
		}
		newAdj = mergeRow(newAdj, src, edits[:k])
		edits = edits[k:]
		newIndex[r+1] = int32(len(newAdj))
	}
	return newIndex, newAdj
}

// mergeRow appends the sorted row src to dst with the neighbours of the
// sorted edits flipped.
func mergeRow(dst, src []int32, edits []uint64) []int32 {
	for _, e := range edits {
		i, present := slices.BinarySearch(src, int32(e))
		dst = append(dst, src[:i]...)
		src = src[i:]
		if present {
			src = src[1:]
		} else {
			dst = append(dst, int32(e))
		}
	}
	return append(dst, src...)
}

// Equal reports whether two snapshots have identical directedness and
// adjacency arrays. Because rows are always sorted, structural equality of
// the underlying graphs implies Equal.
func (c *CSR) Equal(d *CSR) bool {
	return c.directed == d.directed &&
		slices.Equal(c.Index, d.Index) &&
		slices.Equal(c.Adj, d.Adj) &&
		slices.Equal(c.inIndex, d.inIndex) &&
		slices.Equal(c.inAdj, d.inAdj)
}
