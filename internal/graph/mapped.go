package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"socialrec/internal/fault"
)

// Mapped is the zero-copy snapshot backend: a CSR whose Index/Adj (and
// in-adjacency) sections are []int32 views laid directly over a memory-
// mapped .srsnap file. Opening one costs a header decode plus one
// sequential checksum pass; no per-edge allocation or copying happens, the
// OS page cache owns the bytes, and cold-start time is independent of how
// the graph was originally built. Several processes mapping the same file
// share one physical copy.
//
// A Mapped store is immutable and safe for concurrent readers, exactly like
// a heap CSR. Patch copies affected rows out of the mapping, so patched
// overlays remain valid after Close. Close unmaps the file: the store (and
// any spans previously returned by Out/In) must not be touched afterwards —
// close only after serving from it has quiesced.
//
// On platforms without mmap support — and on big-endian hosts, where the
// little-endian file image cannot be reinterpreted in place — OpenMapped
// transparently falls back to a heap decode; Mapped() reports which mode
// was used.
type Mapped struct {
	CSR
	data []byte // the live mapping; nil after Close or in heap-fallback mode
}

// hostLittleEndian reports whether in-place []int32 views over the
// little-endian file image are valid on this host.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// mmapAvailable reports whether OpenMapped can serve zero-copy on this
// platform (mmap support plus a little-endian host). When false,
// OpenMapped decodes into the heap without trying to map.
func mmapAvailable() bool { return mmapSupported && hostLittleEndian }

// OpenMapped opens the .srsnap file at path as a memory-mapped store,
// verifying the header and every section checksum before serving from it.
// Where the platform cannot map the file, or mapping fails at run time, it
// decodes the file into the heap instead; Mapped reports which happened.
func OpenMapped(path string) (*Mapped, error) {
	if !mmapAvailable() {
		c, err := ReadSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		return &Mapped{CSR: *c}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < snapshotHeaderSize {
		return nil, fmt.Errorf("%s: %w: %d-byte file shorter than header", path, ErrSnapshotFormat, size)
	}
	var data []byte
	if err = fault.Inject("graph.mmap"); err == nil {
		data, err = mmapFile(f, int(size))
	}
	if err != nil {
		// Runtime mmap failures happen on filesystems without mmap
		// support (9p, some FUSE mounts) or under map-count pressure;
		// fall back to the heap decode of the same file, as documented.
		c, rerr := ReadSnapshotFile(path)
		if rerr != nil {
			return nil, fmt.Errorf("%s: mmap: %w (heap fallback also failed: %v)", path, err, rerr)
		}
		return &Mapped{CSR: *c}, nil
	}
	m, err := overlay(data)
	if err != nil {
		munmapFile(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// overlay decodes and verifies the mapped image and lays int32 section
// views over it.
func overlay(data []byte) (*Mapped, error) {
	h, err := decodeSnapshotHeader(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != h.fileSize() {
		return nil, fmt.Errorf("%w: file is %d bytes, header implies %d", ErrSnapshotFormat, len(data), h.fileSize())
	}
	m := &Mapped{CSR: CSR{directed: h.directed}, data: data}
	off := int64(snapshotHeaderSize)
	section := func(count int, crc uint32, name string) ([]int32, error) {
		raw := data[off : off+4*int64(count)]
		if got := crc32.ChecksumIEEE(raw); got != crc {
			return nil, fmt.Errorf("%w: %s section crc %08x != %08x", ErrSnapshotChecksum, name, got, crc)
		}
		off += 4 * int64(count)
		if count == 0 {
			return nil, nil
		}
		// The mapping is page-aligned and every section offset is a
		// multiple of 4, so the reinterpretation is aligned.
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), count), nil
	}
	if m.Index, err = section(h.numNodes+1, h.crcIndex, "index"); err != nil {
		return nil, err
	}
	if m.Adj, err = section(h.outArcs, h.crcAdj, "adj"); err != nil {
		return nil, err
	}
	if h.directed {
		if m.inIndex, err = section(h.numNodes+1, h.crcInIdx, "in-index"); err != nil {
			return nil, err
		}
		if m.inAdj, err = section(h.inArcs, h.crcInA, "in-adj"); err != nil {
			return nil, err
		}
	}
	if err := validateCSRSections(&m.CSR, h); err != nil {
		return nil, err
	}
	return m, nil
}

// Patch implements Store. It overrides CSR.Patch because that method's
// empty-batch fast path returns the receiver, which for a mapped store
// would alias the mapping and dangle after Close; the override copies the
// sections to the heap instead, honoring the Store.Patch no-alias
// contract for every batch size.
func (m *Mapped) Patch(deltas []Delta) *CSR {
	if len(deltas) > 0 {
		return m.CSR.Patch(deltas)
	}
	return &CSR{
		directed: m.directed,
		Index:    append([]int32(nil), m.Index...),
		Adj:      append([]int32(nil), m.Adj...),
		inIndex:  append([]int32(nil), m.inIndex...),
		inAdj:    append([]int32(nil), m.inAdj...),
	}
}

// Mapped reports whether the store is backed by a live memory mapping
// (false after Close and in heap-fallback mode).
func (m *Mapped) Mapped() bool { return m.data != nil }

// Close releases the mapping. It is idempotent; the store must not be used
// after the first Close.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	m.Index, m.Adj, m.inIndex, m.inAdj = nil, nil, nil, nil
	return munmapFile(data)
}
