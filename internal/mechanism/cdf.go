package mechanism

import (
	"math"
	"math/rand"

	"socialrec/internal/stream"
)

// cdfBlock is the number of support entries that share one stored prefix
// sum in a SparseCDF. A draw re-accumulates at most cdfBlock-1 weights
// after its binary search, and the block sums cost 8/cdfBlock B per support
// entry: 32 keeps the first to a few hundred nanoseconds and the second to
// 0.25 B.
const cdfBlock = 32

// SparseCDF is the cacheable form of the exponential mechanism's draw: the
// exponential weights of the support, summed into prefix sums that are kept
// only at the end of every cdfBlock-th entry, plus the closed-form mass of
// the zero tail. The per-entry prefix sums are not stored; a draw rebuilds
// the ones it needs from the support (Code, Val), which aliases the
// SparseVec's and reads through the code when it is level-coded. Next to
// the cached support (about 1.1 B of gap-coded node ID plus 1 B code, or
// 8 B utility when the support has more than 256 distinct utilities) a
// support entry costs 8/cdfBlock B here: about 2.4 B in all for a coded
// entry, 9.4 B otherwise, instead of the 20 B of a per-entry prefix sum. A cached draw costs
// O(log(nnz/cdfBlock) + cdfBlock) instead of RecommendStream's O(nnz)
// weight passes.
type SparseCDF struct {
	// Code and Val alias the SparseVec's support. They must not be mutated
	// while the CDF is in use.
	Code []uint8
	Val  []float64
	// Blocks[b] = Σ_{j<=e} exp(Scale·(u_j - UMax)) with u_j support entry
	// j's utility and e the last support index of block b,
	// min(cdfBlock·(b+1), nnz) - 1: the running prefix sum at the end of
	// each block, accumulated in support order exactly as RecommendStream
	// accumulates its running prefix.
	// The last entry is the support mass.
	Blocks []float64
	// Scale = ε/Δf and UMax, the maximum utility over all candidates
	// (0 when the support is empty), are the weight parameters.
	Scale, UMax float64
	// TailWeight = exp(-Scale·UMax), the weight shared by every
	// zero-utility candidate.
	TailWeight float64
	// Tail is the number of zero-utility candidates.
	Tail int
	// Total = support mass + Tail·TailWeight.
	Total float64
}

// Bytes returns the approximate memory footprint of the cached CDF, not
// counting the aliased support: the block sums plus the struct itself
// (three slice headers and five 8-byte fields).
func (c *SparseCDF) Bytes() int { return 8*len(c.Blocks) + 112 }

// len returns the number of support entries.
func (c *SparseCDF) len() int { return stream.Len(c.Code, c.Val) }

// weight is the exponential weight of support entry j, the per-entry
// arithmetic RecommendStream performs. A coded entry's utility is the same
// float64 as the uncoded one, so its weight is too, bit for bit.
func (c *SparseCDF) weight(j int) float64 {
	return c.weightOf(stream.At(c.Code, c.Val, j))
}

// weightOf is the exponential weight of utility u.
func (c *SparseCDF) weightOf(u float64) float64 {
	return math.Exp(c.Scale * (u - c.UMax))
}

// SparseCDF returns the cacheable two-part CDF for the sparse vector. The
// CDF aliases s.Code and s.Val.
func (e Exponential) SparseCDF(s SparseVec) (*SparseCDF, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := &SparseCDF{Code: s.Code, Val: s.Val, Scale: e.Epsilon / e.Sensitivity, UMax: s.max(), Tail: s.tail()}
	// A coded support's entries share their level's weight: one exp per
	// level, each the same float64 weight(j) returns for its entries.
	var levelWeight [stream.MaxLevels]float64
	if s.Code != nil {
		for k, u := range s.Val {
			levelWeight[k] = c.weightOf(u)
		}
	}
	var acc float64
	if nnz := s.len(); nnz > 0 {
		c.Blocks = make([]float64, 0, (nnz+cdfBlock-1)/cdfBlock)
		for j := range nnz {
			if s.Code != nil {
				acc += levelWeight[s.Code[j]]
			} else {
				acc += c.weight(j)
			}
			if j%cdfBlock == cdfBlock-1 || j == nnz-1 {
				c.Blocks = append(c.Blocks, acc)
			}
		}
	}
	c.TailWeight = math.Exp(-c.Scale * c.UMax)
	c.Total = acc + float64(c.Tail)*c.TailWeight
	return c, nil
}

// SampleSparseCDF draws a candidate from a precomputed sparse CDF with a
// single uniform variate, the two-stage draw of the sparse exponential
// mechanism: the variate first lands in either the support mass or the
// closed-form tail mass, then resolves to the first support entry whose
// prefix sum exceeds it or to a uniform rank among the tail's
// interchangeable zero-utility candidates. The support search is a binary
// search over the block sums for the first block ending above the variate,
// then a re-accumulation inside that block from the previous block's sum.
// Floating-point addition is applied to the same operands in the same
// order, so the re-accumulated prefix sums equal RecommendStream's running
// prefix bit for bit and the pick is the one a binary search over
// per-entry prefix sums would find: the same pick RecommendStream makes
// from the same single rng.Float64(). When the tail is empty both are
// bit-identical to inverse-CDF sampling of the dense vector, the oracle
// in dense_test.go.
func SampleSparseCDF(c *SparseCDF, rng *rand.Rand) Pick {
	target := rng.Float64() * c.Total
	var zs float64
	if len(c.Blocks) > 0 {
		zs = c.Blocks[len(c.Blocks)-1]
	}
	if target < zs {
		lo, hi := 0, len(c.Blocks)-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.Blocks[mid] > target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		var acc float64
		if lo > 0 {
			acc = c.Blocks[lo-1]
		}
		start := lo * cdfBlock
		end := min(start+cdfBlock, c.len()) - 1
		for j := start; j < end; j++ {
			acc += c.weight(j)
			if acc > target {
				return Pick{Support: j}
			}
		}
		// The block's last prefix sum is Blocks[lo] > target.
		return Pick{Support: end}
	}
	if c.Tail == 0 {
		// Rounding fell through the support mass; mirror RecommendStream
		// by resolving to the last candidate.
		return Pick{Support: c.len() - 1}
	}
	rank := int((target - zs) / c.TailWeight)
	if rank >= c.Tail {
		rank = c.Tail - 1 // rounding falls through to the last tail slot
	}
	return TailPick(rank)
}
