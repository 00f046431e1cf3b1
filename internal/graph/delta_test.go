package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// applyScript interprets a byte script as a mutation sequence and applies
// every op both to the live graph m and to the plain Graph oracle g, failing
// t when the two answer an op differently. Every third byte selects an op;
// the next two select endpoints modulo the current node count, except that
// a byte of 250 or more names a node past the end, exercising the range
// check.
func applyScript(t *testing.T, m *MutableGraph, g *Graph, script []byte) {
	t.Helper()
	endpoint := func(b byte, n int) int {
		if b >= 250 {
			return n + int(b) - 250
		}
		return int(b) % n
	}
	for i := 0; i+2 < len(script); i += 3 {
		n := g.NumNodes()
		if n == 0 {
			break
		}
		u, v := endpoint(script[i+1], n), endpoint(script[i+2], n)
		var errM, errG error
		switch script[i] % 8 {
		case 0, 1, 2: // bias toward adds so graphs grow
			errM, errG = m.AddEdge(u, v), g.AddEdge(u, v)
		case 3, 4:
			errM, errG = m.RemoveEdge(u, v), g.RemoveEdge(u, v)
		case 5:
			id, err := m.AddNode()
			if want := g.AddNode(); err != nil || id != want {
				t.Fatalf("AddNode = (%d, %v), oracle %d", id, err, want)
			}
		default: // toggle
			if g.HasEdge(u, v) {
				errM, errG = m.RemoveEdge(u, v), g.RemoveEdge(u, v)
			} else {
				errM, errG = m.AddEdge(u, v), g.AddEdge(u, v)
			}
		}
		if fmt.Sprint(errM) != fmt.Sprint(errG) {
			t.Fatalf("op %v on (%d,%d): live graph says %v, oracle %v", script[i:i+3], u, v, errM, errG)
		}
	}
}

// testPatchMatchesSnapshot runs script in chunks against a live graph and
// a plain Graph oracle. At each checkpoint the live graph's base patched
// with its log must equal the oracle's from-scratch Snapshot. Every third
// checkpoint skips Advance, so its batch is patched again together with
// the next chunk's deltas.
func testPatchMatchesSnapshot(t *testing.T, directed bool, nodes int, script []byte) {
	t.Helper()
	var g *Graph
	if directed {
		g = NewDirected(nodes)
	} else {
		g = New(nodes)
	}
	m := NewMutable(g.Snapshot())
	const chunk = 9
	for cp, lo := 0, 0; lo < len(script); cp, lo = cp+1, lo+chunk {
		hi := min(lo+chunk, len(script))
		applyScript(t, m, g, script[lo:hi])
		base, log := m.Batch()
		got := base.Patch(log)
		want := g.Snapshot()
		if !got.Equal(want) {
			t.Fatalf("patched CSR diverged from from-scratch snapshot after %d script bytes\npatched: index=%v adj=%v\nwant:    index=%v adj=%v",
				hi, got.Index, got.Adj, want.Index, want.Adj)
		}
		if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() {
			t.Fatalf("live graph counts %d nodes, %d edges; oracle %d, %d", m.NumNodes(), m.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("oracle graph invalid after %d script bytes: %v", hi, err)
		}
		if cp%3 != 2 {
			m.Advance(got, len(log))
		}
	}
}

func TestPatchMatchesSnapshotScripted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 40; trial++ {
			script := make([]byte, 3*(3+rng.Intn(60)))
			rng.Read(script)
			testPatchMatchesSnapshot(t, directed, 2+rng.Intn(12), script)
		}
	}
}

// TestPatchHubRow patches one batch of thousands of edits to a single
// row, each neighbour's edits alternating in journal order, and checks
// the result against the oracle's snapshot.
func TestPatchHubRow(t *testing.T) {
	base, deltas, g := hubBatch(t, 4000)
	if got, want := base.Patch(deltas), g.Snapshot(); !got.Equal(want) {
		t.Fatalf("hub patch diverged: degree %d, want %d", got.OutDegree(0), want.OutDegree(0))
	}
}

func TestPatchEmptyBatchReturnsSameSnapshot(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	c := g.Snapshot()
	if got := c.Patch(nil); got != c {
		t.Fatalf("Patch(nil) rebuilt the snapshot; want identity")
	}
}

func TestPatchAddNodeGrowsSnapshot(t *testing.T) {
	m := NewMutable(New(2).Snapshot())
	if err := m.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	base, log := m.Batch()
	m.Advance(base.Patch(log), len(log))
	id, err := m.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("AddNode = %d, want 2", id)
	}
	if err := m.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	base, log = m.Batch()
	got := base.Patch(log)
	want := New(3)
	for _, e := range []Edge{{0, 1}, {2, 0}} {
		if err := want.AddEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	if got.NumNodes() != 3 || !got.Equal(want.Snapshot()) {
		t.Fatalf("patched snapshot after AddNode = %d nodes %v/%v, want %v",
			got.NumNodes(), got.Index, got.Adj, want.Snapshot().Adj)
	}
}

// TestBatchAdvanceInvariant pins the rebuild protocol: Batch leaves the
// log in place, a delta logged between Batch and Advance stays pending,
// Advance moves the base onto the patched snapshot without overwriting
// the batch handed out, and the rebuilt overlay still sees the advanced
// edges through the new base.
func TestBatchAdvanceInvariant(t *testing.T) {
	m := NewMutable(New(5).Snapshot())
	if err := m.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	base, log := m.Batch()
	snap := base.Patch(log)
	if m.Pending() != 1 {
		t.Fatalf("Batch cleared the log: %d pending", m.Pending())
	}
	if err := m.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	m.Advance(snap, len(log))
	if _, err := m.AddNode(); err != nil {
		t.Fatal(err)
	}
	if want := []Delta{{Op: DeltaAddEdge, From: 0, To: 1}}; !slices.Equal(log, want) {
		t.Fatalf("batch handed out became %v, want %v", log, want)
	}
	base, log = m.Batch()
	if base != Store(snap) {
		t.Fatal("Advance did not install the patched snapshot as the base")
	}
	if want := []Delta{{Op: DeltaAddEdge, From: 1, To: 2}, {Op: DeltaAddNode, From: 5}}; !slices.Equal(log, want) {
		t.Fatalf("pending after Advance = %v, want %v", log, want)
	}
	if m.NumEdges() != 2 || m.NumNodes() != 6 {
		t.Fatalf("live graph after Advance: %d edges, %d nodes; want 2 and 6", m.NumEdges(), m.NumNodes())
	}
	if err := m.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("re-adding an advanced edge: %v, want ErrDuplicateEdge", err)
	}
	if err := m.AddEdge(2, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("re-adding a pending edge: %v, want ErrDuplicateEdge", err)
	}
	if err := m.RemoveEdge(1, 0); err != nil {
		t.Fatalf("removing an advanced edge: %v", err)
	}
	want := New(6)
	if err := want.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	base, log = m.Batch()
	if !base.Patch(log).Equal(want.Snapshot()) {
		t.Fatal("patch of the advanced base diverged")
	}
}

func TestMutableGraphRejectsInvalid(t *testing.T) {
	m := NewMutable(New(3).Snapshot())
	if err := m.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if err := m.AddEdge(0, 7); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := m.AddEdge(-1, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("negative node: %v", err)
	}
	if err := m.RemoveEdge(0, 1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("missing-edge removal: %v", err)
	}
	if got := m.Pending(); got != 0 {
		t.Fatalf("failed mutations journaled %d deltas", got)
	}
	// A journal veto leaves the live graph untouched.
	veto := errors.New("veto")
	m.SetJournal(func(Delta) error { return veto })
	if err := m.AddEdge(0, 1); !errors.Is(err, veto) {
		t.Fatalf("vetoed AddEdge: %v", err)
	}
	if id, err := m.AddNode(); id != -1 || !errors.Is(err, veto) {
		t.Fatalf("vetoed AddNode = (%d, %v)", id, err)
	}
	if m.Pending() != 0 || m.NumEdges() != 0 || m.NumNodes() != 3 {
		t.Fatalf("veto applied a mutation: pending=%d edges=%d nodes=%d", m.Pending(), m.NumEdges(), m.NumNodes())
	}
}

// TestMutableGraphConcurrentMutations races writers against a rebuilder
// that patches and advances, then replays every delta the rebuilder
// advanced past plus the remaining log onto a plain Graph: each must apply
// (the log is a valid journal) and the result must equal the live graph.
func TestMutableGraphConcurrentMutations(t *testing.T) {
	m := NewMutable(New(64).Snapshot())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				u, v := rng.Intn(64), rng.Intn(64)
				if rng.Intn(3) == 0 {
					m.RemoveEdge(u, v) //nolint:errcheck // racing removals may miss
				} else if u != v {
					m.AddEdge(u, v) //nolint:errcheck // racing adds may duplicate
				}
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	var advanced []Delta
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			base, log := m.Batch()
			m.Advance(base.Patch(log), len(log))
			advanced = append(advanced, log...)
		}
	}()
	wg.Wait()
	<-done
	base, log := m.Batch()
	oracle := New(64)
	for i, d := range append(advanced, log...) {
		var err error
		if d.Op == DeltaAddEdge {
			err = oracle.AddEdge(d.From, d.To)
		} else {
			err = oracle.RemoveEdge(d.From, d.To)
		}
		if err != nil {
			t.Fatalf("delta %d %+v is not valid at its point in the journal: %v", i, d, err)
		}
	}
	if !base.Patch(log).Equal(oracle.Snapshot()) || m.NumEdges() != oracle.NumEdges() {
		t.Fatal("live graph diverged from its journal's replay")
	}
}

// FuzzGraphMutations drives random mutation scripts through MutableGraph
// and a plain Graph oracle, checking that every op answers alike and, at
// every checkpoint, that the patched CSR is bit-identical to the oracle's
// from-scratch Snapshot — the property the live serving path depends on.
func FuzzGraphMutations(f *testing.F) {
	f.Add(uint8(4), false, []byte{0, 0, 1, 0, 1, 2, 3, 0, 1})
	f.Add(uint8(6), true, []byte{0, 0, 1, 5, 0, 0, 0, 6, 0, 3, 0, 1})
	f.Add(uint8(2), false, []byte{5, 0, 0, 0, 2, 0, 7, 0, 2, 7, 0, 2})
	f.Fuzz(func(t *testing.T, n uint8, directed bool, script []byte) {
		if len(script) > 3*256 {
			script = script[:3*256]
		}
		testPatchMatchesSnapshot(t, directed, 1+int(n%24), script)
	})
}
