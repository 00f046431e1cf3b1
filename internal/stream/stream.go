// Package stream defines the pull-based iterator contract the serving path
// uses to move a target's sparse utility support from the graph kernels to
// the mechanisms without materializing it: a Scorer yields (candidate index,
// utility) pairs one at a time out of pooled scratch, so an uncached request
// allocates nothing proportional to the support.
//
// Contract:
//
//   - Next returns the next nonzero (idx, val) pair in strictly ascending
//     idx order, or ok == false once the stream is exhausted. Values are
//     positive (utility kernels emit only the nonzero support).
//   - Reset rewinds the stream to the first pair. Mechanisms are multi-pass
//     consumers (the exponential mechanism needs a max pass before its
//     weight pass, exactly like the materialized path), so Reset must be
//     O(1) and side-effect free.
//   - Close returns the Scorer's backing scratch to its pool. The Scorer
//     must not be used after Close; Close is idempotent.
//
// A fresh Scorer is positioned at the start; the first consumer pass may
// call Next without a Reset. The producing kernel owns the scratch until
// Close, which is what keeps the whole pipeline allocation-free: ownership
// transfers from the pool to the kernel to the consumer and back to the
// pool, never to the heap.
package stream

// Scorer is the pull iterator over a sparse utility support. See the
// package comment for the full contract.
type Scorer interface {
	Next() (idx int32, val float64, ok bool)
	Reset()
	Close()
}

// A materialized support is a pair (Code, Val) under one convention,
// shared by Slice, the mechanism package's SparseVec and SparseCDF and the
// serving cache: when Code is nil, Val holds one utility per support
// entry; when Code is non-nil, Val holds at most MaxLevels ascending
// distinct utilities (the entry's levels) and entry j's utility is
// Val[Code[j]]. The lookup returns the very float64 the kernel produced,
// so the coded form is a lossless one-byte-per-entry encoding of
// small-integer utilities such as common-neighbour counts. The support's
// ascending node IDs sit next to it either as one int32 per entry or
// gap-coded (IDs): a graph kernel's support is a target's 2–3-hop
// neighbourhood, so consecutive IDs lie close together and almost every
// gap fits one byte. Encode builds both coded forms from a Scorer.

// MaxLevels is the most distinct utilities a coded support holds: the
// number of values a uint8 code addresses.
const MaxLevels = 256

// Len returns the number of entries of the support (code, val).
func Len(code []uint8, val []float64) int {
	if code != nil {
		return len(code)
	}
	return len(val)
}

// At returns entry j's utility of the support (code, val).
func At(code []uint8, val []float64, j int) float64 {
	if code != nil {
		return val[code[j]]
	}
	return val[j]
}

// IDBlock is the number of entries per block of a gap-coded ID list: each
// block starts at an absolute ID, so a random access decodes at most
// IDBlock-1 gaps, and the block offsets cost 4/IDBlock B per entry.
const IDBlock = 32

// IDs is a support's ascending node IDs in gap-coded form. Entry j is one
// uvarint in Gaps: its absolute ID when j is a multiple of IDBlock, its
// gap from entry j-1 otherwise. Off[b] is the byte offset in Gaps of entry
// b·IDBlock, so every block decodes on its own. IDs are read as uint32
// and wrap, so any int32 sequence round-trips; ascending ones are short.
type IDs struct {
	Gaps []byte
	Off  []uint32
}

// uvarint decodes the uvarint (as binary.AppendUvarint writes it) at b[p:]
// and returns it with the offset past it. It is small enough to inline:
// a gap below 128 — nearly every one — is a single byte.
func uvarint(b []byte, p int) (uint32, int) {
	var x uint32
	for s := 0; ; s += 7 {
		c := b[p]
		p++
		x |= uint32(c&0x7f) << s
		if c < 0x80 {
			return x, p
		}
	}
}

// At returns entry j's node ID.
func (d *IDs) At(j int) int32 {
	id, p := uvarint(d.Gaps, int(d.Off[j/IDBlock]))
	for range j % IDBlock {
		var g uint32
		g, p = uvarint(d.Gaps, p)
		id += g
	}
	return int32(id)
}

// Block decodes the IDs of block b (entries b·IDBlock onwards, at most
// IDBlock of them) into buf and returns them.
func (d *IDs) Block(b int, buf *[IDBlock]int32) []int32 {
	end := len(d.Gaps)
	if b+1 < len(d.Off) {
		end = int(d.Off[b+1])
	}
	id, p := uvarint(d.Gaps, int(d.Off[b]))
	buf[0] = int32(id)
	k := 1
	for ; p < end; k++ {
		var g uint32
		g, p = uvarint(d.Gaps, p)
		id += g
		buf[k] = int32(id)
	}
	return buf[:k]
}

// Bytes returns the encoded size: the gaps plus the block offsets.
func (d *IDs) Bytes() int { return len(d.Gaps) + 4*len(d.Off) }

// Slice is a Scorer over a caller-provided support (Idx or IDs, Code,
// Val), for tests and for feeding mechanisms from an already-materialized
// support; see the convention above. With neither Idx nor IDs set, every
// entry reads node 0. Close is a no-op; the caller owns the slices.
type Slice struct {
	Idx  []int32
	IDs  IDs
	Code []uint8
	Val  []float64
	pos  int
	// at is the byte offset of entry pos in IDs.Gaps and id the ID of
	// entry pos-1: a sequential walk decodes one uvarint per Next.
	at int
	id uint32
}

// NewSlice returns a Slice over a per-entry support, positioned at the
// start.
func NewSlice(idx []int32, val []float64) *Slice { return &Slice{Idx: idx, Val: val} }

// Next implements Scorer.
func (s *Slice) Next() (int32, float64, bool) {
	if s.pos >= Len(s.Code, s.Val) {
		return 0, 0, false
	}
	i := s.pos
	s.pos++
	var id int32
	if i < len(s.Idx) {
		id = s.Idx[i]
	} else if s.IDs.Gaps != nil {
		var g uint32
		g, s.at = uvarint(s.IDs.Gaps, s.at)
		if i%IDBlock == 0 {
			s.id = g
		} else {
			s.id += g
		}
		id = int32(s.id)
	}
	return id, At(s.Code, s.Val, i), true
}

// Reset implements Scorer.
func (s *Slice) Reset() { s.pos, s.at, s.id = 0, 0, 0 }

// Close implements Scorer.
func (*Slice) Close() {}
