package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// snapRandomGraph builds a random simple graph for codec tests.
func snapRandomGraph(t testing.TB, seed int64, n int, directed bool, density float64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *Graph
	if directed {
		g = NewDirected(n)
	} else {
		g = New(n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() >= density {
				continue
			}
			if !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
				}
			}
		}
	}
	return g
}

func encodeSnapshot(t testing.TB, s Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := snapRandomGraph(t, 7, 60, directed, 0.08)
		want := g.Snapshot()
		enc := encodeSnapshot(t, want)
		got, err := ReadSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("directed=%v: ReadSnapshot: %v", directed, err)
		}
		if !want.Equal(got) {
			t.Fatalf("directed=%v: round-tripped CSR differs", directed)
		}
		// Deterministic encoding: same store, same bytes.
		if !bytes.Equal(enc, encodeSnapshot(t, got)) {
			t.Fatalf("directed=%v: re-encoding is not byte-identical", directed)
		}
	}
}

func TestSnapshotEmptyAndIsolated(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := New(n)
		enc := encodeSnapshot(t, g.Snapshot())
		got, err := ReadSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.NumNodes() != n || got.NumEdges() != 0 {
			t.Fatalf("n=%d: decoded %d nodes, %d edges", n, got.NumNodes(), got.NumEdges())
		}
	}
}

func TestSnapshotFileAndMapped(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := snapRandomGraph(t, 11, 80, directed, 0.06)
		want := g.Snapshot()
		path := filepath.Join(t.TempDir(), "g.srsnap")
		if err := WriteSnapshotFile(path, want); err != nil {
			t.Fatalf("WriteSnapshotFile: %v", err)
		}

		heap, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatalf("ReadSnapshotFile: %v", err)
		}
		if !want.Equal(heap) {
			t.Fatal("heap-decoded CSR differs from source")
		}

		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("OpenMapped: %v", err)
		}
		if mmapSupported && hostLittleEndian && !m.Mapped() {
			t.Error("expected a live mapping on this platform")
		}
		if !want.Equal(&m.CSR) {
			t.Fatal("mapped CSR differs from source")
		}
		// Spot-check every Store query against the heap backend.
		if m.NumNodes() != heap.NumNodes() || m.NumEdges() != heap.NumEdges() ||
			m.Directed() != heap.Directed() ||
			m.MaxDegree() != heap.MaxDegree() {
			t.Fatal("mapped scalar queries differ from heap backend")
		}
		for v := 0; v < heap.NumNodes(); v++ {
			if !int32SlicesEqual(m.Out(v), heap.Out(v)) || !int32SlicesEqual(m.In(v), heap.In(v)) {
				t.Fatalf("neighbor spans differ at node %d", v)
			}
		}

		// Patch must copy out of the mapping: the overlay stays valid and
		// correct after Close.
		mut := NewMutable(heap)
		if err := mut.AddEdge(0, heap.NumNodes()-1); err != nil {
			if err := mut.RemoveEdge(0, int(heap.Out(0)[0])); err != nil {
				t.Fatalf("seeding patch delta: %v", err)
			}
		}
		_, deltas := mut.Batch()
		patchedFromMap := m.Patch(deltas)
		patchedFromHeap := heap.Patch(deltas)
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if !patchedFromHeap.Equal(patchedFromMap) {
			t.Fatal("patch of mapped store differs from patch of heap store")
		}
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	g := snapRandomGraph(t, 3, 40, true, 0.1)
	enc := encodeSnapshot(t, g.Snapshot())

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), enc...)
		mutate(b)
		_, err := ReadSnapshot(bytes.NewReader(b))
		return err
	}

	if err := corrupt(func(b []byte) { b[0] = 'X' }); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("bad magic: got %v, want ErrSnapshotFormat", err)
	}
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:], 99)
		binary.LittleEndian.PutUint32(b[56:], crc32.ChecksumIEEE(b[:56]))
	}); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("future version: got %v, want ErrSnapshotVersion", err)
	}
	if err := corrupt(func(b []byte) { b[20]++ }); !errors.Is(err, ErrSnapshotChecksum) {
		t.Errorf("header bit flip: got %v, want ErrSnapshotChecksum", err)
	}
	if err := corrupt(func(b []byte) { b[len(b)-1] ^= 0xff }); !errors.Is(err, ErrSnapshotChecksum) {
		t.Errorf("body bit flip: got %v, want ErrSnapshotChecksum", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(enc[:len(enc)-5])); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("truncated body: got %v, want ErrSnapshotFormat", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(enc[:10])); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("truncated header: got %v, want ErrSnapshotFormat", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), enc...), 0))); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("trailing bytes: got %v, want ErrSnapshotFormat", err)
	}

	// Mapped opens run the same validation.
	dir := t.TempDir()
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xff
	path := filepath.Join(dir, "bad.srsnap")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); !errors.Is(err, ErrSnapshotChecksum) {
		t.Errorf("OpenMapped on corrupt file: got %v, want ErrSnapshotChecksum", err)
	}
}

// TestSnapshotRejectsWellChecksummedNonsense crafts a snapshot whose CRCs
// are valid but whose adjacency violates the CSR invariants; the decoder
// must reject it rather than serve out-of-bounds scans.
func TestSnapshotRejectsWellChecksummedNonsense(t *testing.T) {
	evil := &CSR{Index: []int32{0, 1}, Adj: []int32{5}} // neighbor 5 of a 1-node graph
	enc := encodeSnapshot(t, evil)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("out-of-range neighbor: got %v, want ErrSnapshotFormat", err)
	}

	nonMonotone := &CSR{Index: []int32{0, 2, 1}, Adj: []int32{1}}
	enc = encodeSnapshot(t, nonMonotone)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("non-monotone index: got %v, want ErrSnapshotFormat", err)
	}

	// Rows must be strictly ascending: HasEdge binary-searches them and
	// Patch merge-edits them.
	unsorted := &CSR{Index: []int32{0, 2, 3, 4}, Adj: []int32{2, 1, 0, 0}}
	enc = encodeSnapshot(t, unsorted)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("unsorted row: got %v, want ErrSnapshotFormat", err)
	}

	selfLoop := &CSR{Index: []int32{0, 1, 2}, Adj: []int32{0, 0}}
	enc = encodeSnapshot(t, selfLoop)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("self loop: got %v, want ErrSnapshotFormat", err)
	}

	// Undirected halves must mirror: 0->1 without 1->0 is not a graph any
	// Snapshot could have produced.
	asymmetric := &CSR{Index: []int32{0, 1, 1}, Adj: []int32{1}}
	enc = encodeSnapshot(t, asymmetric)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("asymmetric undirected adjacency: got %v, want ErrSnapshotFormat", err)
	}

	// Directed snapshots must carry matching out/in arc counts.
	lopsided := &CSR{directed: true, Index: []int32{0, 1, 1}, Adj: []int32{1}, inIndex: []int32{0, 0, 0}, inAdj: nil}
	enc = encodeSnapshot(t, lopsided)
	if _, err := ReadSnapshot(bytes.NewReader(enc)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("lopsided directed arcs: got %v, want ErrSnapshotFormat", err)
	}
}

// TestMappedEmptyPatchDoesNotAliasMapping pins the Store.Patch contract:
// even a zero-delta Patch of a mapped store must stay valid after Close.
func TestMappedEmptyPatchDoesNotAliasMapping(t *testing.T) {
	g := snapRandomGraph(t, 21, 30, false, 0.2)
	path := filepath.Join(t.TempDir(), "g.srsnap")
	if err := WriteSnapshotFile(path, g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	overlayCSR := m.Patch(nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !overlayCSR.Equal(g.Snapshot()) {
		t.Fatal("empty-patch overlay differs from source after Close")
	}
}

// TestSnapshotHugeHeaderNoHugeAllocation feeds a header claiming ~2^31 arcs
// with no body; decoding must fail fast on the short read instead of
// allocating gigabytes up front.
func TestSnapshotHugeHeaderNoHugeAllocation(t *testing.T) {
	h := &snapshotHeader{directed: false, numNodes: 3, outArcs: 1 << 30}
	buf := h.encode()
	_, err := ReadSnapshot(bytes.NewReader(buf))
	if !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("got %v, want ErrSnapshotFormat", err)
	}
}

func FuzzSnapshotCodec(f *testing.F) {
	f.Add(encodeSnapshot(f, New(0).Snapshot()))
	f.Add(encodeSnapshot(f, snapRandomGraph(f, 1, 12, false, 0.3).Snapshot()))
	f.Add(encodeSnapshot(f, snapRandomGraph(f, 2, 12, true, 0.3).Snapshot()))
	f.Add([]byte(SnapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, never panic
		}
		// Anything accepted must re-encode and decode to an equal store.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, c); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !c.Equal(again) {
			t.Fatal("accepted snapshot did not round-trip")
		}
		// Accepted snapshots must be safe to scan end to end.
		for v := 0; v < c.NumNodes(); v++ {
			_ = c.Out(v)
			_ = c.In(v)
		}
	})
}
