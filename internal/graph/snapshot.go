package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"socialrec/internal/fault"
)

// Binary snapshot codec: the .srsnap format persists a CSR snapshot as four
// checksummed little-endian int32 sections behind a fixed 64-byte header, so
// a serving process can cold-start by decoding (or just memory-mapping) the
// file instead of re-parsing an edge list and rebuilding adjacency rows.
//
// Layout (all integers little-endian):
//
//	offset  0  [8]  magic "SRSNAP01"
//	offset  8  [4]  uint32 format version (currently 1)
//	offset 12  [4]  uint32 flags (bit 0: directed)
//	offset 16  [8]  uint64 node count n
//	offset 24  [8]  uint64 out-arc count (len Adj)
//	offset 32  [8]  uint64 in-arc count (len inAdj; 0 when undirected)
//	offset 40  [4]  uint32 CRC-32 (IEEE) of the Index section bytes
//	offset 44  [4]  uint32 CRC-32 of the Adj section bytes
//	offset 48  [4]  uint32 CRC-32 of the inIndex section bytes
//	offset 52  [4]  uint32 CRC-32 of the inAdj section bytes
//	offset 56  [4]  uint32 CRC-32 of header bytes [0, 56)
//	offset 60  [4]  reserved, must be 0
//	offset 64       Index:   n+1 int32
//	                Adj:     outArcs int32
//	                inIndex: n+1 int32 (directed only)
//	                inAdj:   inArcs int32 (directed only)
//
// Every section starts at a multiple of 4 bytes (the header is 64 bytes and
// each section is a whole number of int32s), which is what lets the mmap
// backend overlay []int32 views directly onto the mapped file.

// SnapshotMagic is the 8-byte magic prefix of a .srsnap file.
const SnapshotMagic = "SRSNAP01"

// SnapshotVersion is the current format version written by WriteSnapshot.
const SnapshotVersion = 1

const snapshotHeaderSize = 64

// Snapshot codec errors.
var (
	// ErrSnapshotFormat wraps every structurally-malformed-file error:
	// bad magic, impossible section lengths, truncation.
	ErrSnapshotFormat = errors.New("graph: malformed snapshot")
	// ErrSnapshotVersion is returned for a well-formed header whose
	// version this build does not understand.
	ErrSnapshotVersion = errors.New("graph: unsupported snapshot version")
	// ErrSnapshotChecksum is returned when a section's CRC does not match
	// its contents.
	ErrSnapshotChecksum = errors.New("graph: snapshot checksum mismatch")
)

// snapshotHeader is the decoded fixed-size header.
type snapshotHeader struct {
	directed         bool
	numNodes         int
	outArcs, inArcs  int
	crcIndex, crcAdj uint32
	crcInIdx, crcInA uint32
}

func (h *snapshotHeader) fileSize() int64 {
	sz := int64(snapshotHeaderSize) + 4*int64(h.numNodes+1) + 4*int64(h.outArcs)
	if h.directed {
		sz += 4*int64(h.numNodes+1) + 4*int64(h.inArcs)
	}
	return sz
}

// encodeHeader lays h out into a fresh 64-byte slice, computing the header
// CRC.
func (h *snapshotHeader) encode() []byte {
	buf := make([]byte, snapshotHeaderSize)
	copy(buf, SnapshotMagic)
	binary.LittleEndian.PutUint32(buf[8:], SnapshotVersion)
	var flags uint32
	if h.directed {
		flags |= 1
	}
	binary.LittleEndian.PutUint32(buf[12:], flags)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.numNodes))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.outArcs))
	binary.LittleEndian.PutUint64(buf[32:], uint64(h.inArcs))
	binary.LittleEndian.PutUint32(buf[40:], h.crcIndex)
	binary.LittleEndian.PutUint32(buf[44:], h.crcAdj)
	binary.LittleEndian.PutUint32(buf[48:], h.crcInIdx)
	binary.LittleEndian.PutUint32(buf[52:], h.crcInA)
	binary.LittleEndian.PutUint32(buf[56:], crc32.ChecksumIEEE(buf[:56]))
	return buf
}

// decodeSnapshotHeader validates magic, version, reserved bytes, the header
// CRC, and basic length sanity.
func decodeSnapshotHeader(buf []byte) (*snapshotHeader, error) {
	if len(buf) < snapshotHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte file shorter than %d-byte header", ErrSnapshotFormat, len(buf), snapshotHeaderSize)
	}
	if string(buf[:8]) != SnapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d (this build reads version %d)", ErrSnapshotVersion, v, SnapshotVersion)
	}
	if got, want := crc32.ChecksumIEEE(buf[:56]), binary.LittleEndian.Uint32(buf[56:]); got != want {
		return nil, fmt.Errorf("%w: header crc %08x != %08x", ErrSnapshotChecksum, got, want)
	}
	if binary.LittleEndian.Uint32(buf[60:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved bytes", ErrSnapshotFormat)
	}
	flags := binary.LittleEndian.Uint32(buf[12:])
	if flags&^1 != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrSnapshotFormat, flags&^1)
	}
	h := &snapshotHeader{
		directed: flags&1 != 0,
		crcIndex: binary.LittleEndian.Uint32(buf[40:]),
		crcAdj:   binary.LittleEndian.Uint32(buf[44:]),
		crcInIdx: binary.LittleEndian.Uint32(buf[48:]),
		crcInA:   binary.LittleEndian.Uint32(buf[52:]),
	}
	n := binary.LittleEndian.Uint64(buf[16:])
	outArcs := binary.LittleEndian.Uint64(buf[24:])
	inArcs := binary.LittleEndian.Uint64(buf[32:])
	// Node IDs and section offsets are int32-indexed; reject anything a
	// CSR could not have produced before allocating.
	if n >= math.MaxInt32 || outArcs > math.MaxInt32 || inArcs > math.MaxInt32 {
		return nil, fmt.Errorf("%w: section lengths n=%d out=%d in=%d exceed int32 layout", ErrSnapshotFormat, n, outArcs, inArcs)
	}
	if !h.directed && inArcs != 0 {
		return nil, fmt.Errorf("%w: undirected snapshot with %d in-arcs", ErrSnapshotFormat, inArcs)
	}
	h.numNodes = int(n)
	h.outArcs = int(outArcs)
	h.inArcs = int(inArcs)
	return h, nil
}

// WriteSnapshot encodes the store into the .srsnap format. The writer
// receives the 64-byte header followed by the checksummed sections; the
// whole encoding is deterministic, so identical stores produce identical
// bytes.
func WriteSnapshot(w io.Writer, s Store) error {
	sec := s.sections()
	if len(sec.index) == 0 {
		// A CSR always has n+1 index entries; normalize the empty store.
		sec.index = []int32{0}
	}
	n := len(sec.index) - 1
	if n >= math.MaxInt32 || len(sec.adj) > math.MaxInt32 || len(sec.inAdj) > math.MaxInt32 {
		return fmt.Errorf("graph: snapshot too large for int32 layout (n=%d)", n)
	}
	h := &snapshotHeader{directed: sec.directed, numNodes: n, outArcs: len(sec.adj), inArcs: len(sec.inAdj)}

	// The header embeds the section CRCs, so checksum every section (a
	// memory-bandwidth-bound pre-pass) before streaming header then body.
	h.crcIndex = crcOfInt32s(sec.index)
	h.crcAdj = crcOfInt32s(sec.adj)
	if sec.directed {
		h.crcInIdx = crcOfInt32s(sec.inIndex)
		h.crcInA = crcOfInt32s(sec.inAdj)
	}
	out := bufio.NewWriterSize(w, 1<<16)
	if _, err := out.Write(h.encode()); err != nil {
		return err
	}
	for _, data := range [][]int32{sec.index, sec.adj, sec.inIndex, sec.inAdj} {
		if err := writeInt32s(out, data); err != nil {
			return err
		}
	}
	return out.Flush()
}

// crcOfInt32s checksums the little-endian byte image of data.
func crcOfInt32s(data []int32) uint32 {
	c := crc32.NewIEEE()
	var buf [1 << 12]byte
	i := 0
	for i < len(data) {
		k := 0
		for i < len(data) && k+4 <= len(buf) {
			binary.LittleEndian.PutUint32(buf[k:], uint32(data[i]))
			k += 4
			i++
		}
		c.Write(buf[:k])
	}
	return c.Sum32()
}

// writeInt32s streams data little-endian through w.
func writeInt32s(w *bufio.Writer, data []int32) error {
	var scratch [4]byte
	for _, x := range data {
		binary.LittleEndian.PutUint32(scratch[:], uint32(x))
		if _, err := w.Write(scratch[:]); err != nil {
			return err
		}
	}
	return nil
}

// readInt32s decodes count little-endian int32s from r into a fresh slice,
// verifying the section CRC. The slice grows as data actually arrives
// rather than trusting the header's count up front, so a truncated file
// whose header claims 2^31 arcs cannot force a multi-gigabyte allocation
// before the short read is noticed.
func readInt32s(r *bufio.Reader, count int, wantCRC uint32, section string) ([]int32, error) {
	out := make([]int32, 0, min(count, 1<<20))
	crc := crc32.NewIEEE()
	var buf [1 << 12]byte
	for len(out) < count {
		want := len(buf)
		if remaining := count - len(out); remaining < len(buf)/4 {
			want = remaining * 4
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: truncated %s section: %v", ErrSnapshotFormat, section, err)
		}
		crc.Write(buf[:want])
		for k := 0; k < want; k += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[k:])))
		}
	}
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("%w: %s section crc %08x != %08x", ErrSnapshotChecksum, section, got, wantCRC)
	}
	return out, nil
}

// ReadSnapshot decodes a .srsnap stream into a heap-resident CSR, verifying
// the header and every section checksum.
func ReadSnapshot(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hbuf := make([]byte, snapshotHeaderSize)
	if _, err := io.ReadFull(br, hbuf); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshotFormat, err)
	}
	h, err := decodeSnapshotHeader(hbuf)
	if err != nil {
		return nil, err
	}
	c := &CSR{directed: h.directed}
	if c.Index, err = readInt32s(br, h.numNodes+1, h.crcIndex, "index"); err != nil {
		return nil, err
	}
	if c.Adj, err = readInt32s(br, h.outArcs, h.crcAdj, "adj"); err != nil {
		return nil, err
	}
	if h.directed {
		if c.inIndex, err = readInt32s(br, h.numNodes+1, h.crcInIdx, "in-index"); err != nil {
			return nil, err
		}
		if c.inAdj, err = readInt32s(br, h.inArcs, h.crcInA, "in-adj"); err != nil {
			return nil, err
		}
	}
	// The stream must end exactly where the header says it does, matching
	// the mmap backend's exact-size check so both backends accept and
	// reject the same files.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after sections", ErrSnapshotFormat)
	}
	if err := validateCSRSections(c, h); err != nil {
		return nil, err
	}
	return c, nil
}

// validateCSRSections checks the structural invariants the rest of the
// package relies on: monotone index arrays bracketing the adjacency length,
// in-range neighbor IDs, strictly ascending rows (HasEdge binary-searches
// and Patch merge-edits rows, and ascending implies no duplicate edges),
// no self loops, and matching out/in arc counts for directed snapshots
// (every directed edge appears in both halves, and degree-derived
// quantities like the DP noise calibration depend on it). Checksums catch
// corruption; this catches well-checksummed nonsense from a hostile or
// buggy producer.
func validateCSRSections(c *CSR, h *snapshotHeader) error {
	if err := validateHalf(c.Index, c.Adj, h.numNodes, "out"); err != nil {
		return err
	}
	if h.directed {
		if h.inArcs != h.outArcs {
			return fmt.Errorf("%w: directed snapshot with %d out-arcs but %d in-arcs", ErrSnapshotFormat, h.outArcs, h.inArcs)
		}
		if err := validateHalf(c.inIndex, c.inAdj, h.numNodes, "in"); err != nil {
			return err
		}
	}
	// Mirror symmetry: every out-arc v->u must appear as v in the mirror
	// row of u (the in-adjacency for directed snapshots, the same half for
	// undirected ones). Patch edits both halves assuming this, and
	// FromStore reconstructs undirected edges from one orientation.
	mirrorIndex, mirrorAdj := c.Index, c.Adj
	if h.directed {
		mirrorIndex, mirrorAdj = c.inIndex, c.inAdj
	}
	return validateMirror(c.Index, c.Adj, mirrorIndex, mirrorAdj, h.numNodes)
}

// validateMirror proves the two halves are exact mirrors in one O(arcs)
// merge pass (this sits on the cold-start path, so no per-arc binary
// search): enumerating arcs (v, u) in ascending-v order visits the mirror
// entries of each row u in ascending order too, so a per-node cursor that
// must match v exactly — and must end at each row's end — establishes a
// bijection between arcs and their mirrors.
func validateMirror(index, adj, mirrorIndex, mirrorAdj []int32, n int) error {
	cursors := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range adj[index[v]:index[v+1]] {
			pos := mirrorIndex[u] + cursors[u]
			if pos >= mirrorIndex[u+1] || mirrorAdj[pos] != int32(v) {
				return fmt.Errorf("%w: arc %d->%d has no mirror", ErrSnapshotFormat, v, u)
			}
			cursors[u]++
		}
	}
	for u := 0; u < n; u++ {
		if cursors[u] != mirrorIndex[u+1]-mirrorIndex[u] {
			return fmt.Errorf("%w: mirror row %d has %d unmatched arcs", ErrSnapshotFormat, u, mirrorIndex[u+1]-mirrorIndex[u]-cursors[u])
		}
	}
	return nil
}

func validateHalf(index, adj []int32, n int, half string) error {
	if index[0] != 0 {
		return fmt.Errorf("%w: %s index[0] = %d", ErrSnapshotFormat, half, index[0])
	}
	if int(index[n]) != len(adj) {
		return fmt.Errorf("%w: %s index[n] = %d but %d arcs", ErrSnapshotFormat, half, index[n], len(adj))
	}
	// Validate the whole index before slicing any row: a locally-monotone
	// prefix can still point past the adjacency array if a later entry
	// decreases.
	for v := 0; v < n; v++ {
		if index[v+1] < index[v] {
			return fmt.Errorf("%w: %s index not monotone at node %d", ErrSnapshotFormat, half, v)
		}
	}
	for v := 0; v < n; v++ {
		row := adj[index[v]:index[v+1]]
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("%w: %s neighbor %d of %d out of range [0,%d)", ErrSnapshotFormat, half, u, v, n)
			}
			if int(u) == v {
				return fmt.Errorf("%w: %s self loop at %d", ErrSnapshotFormat, half, v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("%w: %s row %d not strictly ascending at %d", ErrSnapshotFormat, half, v, i)
			}
		}
	}
	return nil
}

// ReadSnapshotFile decodes the .srsnap file at path into a heap CSR.
func ReadSnapshotFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteSnapshotFile atomically persists the store at path: the encoding is
// written to a temporary file in the same directory, fsynced, and renamed
// over the destination, so readers (and a crash mid-write) only ever
// observe either the old complete snapshot or the new one.
func WriteSnapshotFile(path string, s Store) error {
	if err := fault.Inject("snapshot.persist"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteSnapshot(fault.Writer("snapshot.write", tmp), s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes the file 0600; give the finished snapshot normal
	// data-file permissions.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Fsync the directory so the rename itself survives a crash; without
	// it a restart could resume from the previous snapshot even after the
	// write was acknowledged. Best-effort where directories cannot be
	// opened or synced (some platforms/filesystems).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
