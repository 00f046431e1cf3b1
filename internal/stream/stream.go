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
// small-integer utilities such as common-neighbour counts. Encode builds
// it from a Scorer.

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

// Slice is a Scorer over a caller-provided support (Idx, Code, Val), for
// tests and for feeding mechanisms from an already-materialized support;
// see the convention above. Close is a no-op; the caller owns the slices.
type Slice struct {
	Idx  []int32
	Code []uint8
	Val  []float64
	pos  int
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
	}
	return id, At(s.Code, s.Val, i), true
}

// Reset implements Scorer.
func (s *Slice) Reset() { s.pos = 0 }

// Close implements Scorer.
func (*Slice) Close() {}
