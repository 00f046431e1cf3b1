// Package mechanism implements the recommendation algorithms the paper
// studies: the optimal non-private recommender R_best, the uniform baseline,
// the Exponential mechanism (Definition 5), the Laplace mechanism
// (Definition 6), and the sampling/linear-smoothing mechanism A_S(x) of
// Appendix F. A utility vector reaches a mechanism in sparse form: its
// nonzero support, as a stream.Scorer or a SparseVec, plus the count of
// candidates whose utility is 0. Each mechanism has one draw over that
// stream (StreamMechanism) and, when it admits one, one closed-form
// probability law over the support and the zero tail (SparseDistribution).
// The dense forms over a []float64 with one entry per candidate survive
// only as test oracles (dense_test.go), which the bit-identity and
// equivalence tests hold the served forms to.
//
// Accuracy follows Definition 2 of the paper: the expected utility of the
// mechanism's recommendation divided by u_max, the utility R_best attains.
package mechanism

import "errors"

// Errors shared by the mechanism implementations.
var (
	ErrEmpty        = errors.New("mechanism: empty utility vector")
	ErrNegative     = errors.New("mechanism: negative utility")
	ErrBadEpsilon   = errors.New("mechanism: epsilon must be positive")
	ErrBadSens      = errors.New("mechanism: sensitivity must be positive")
	ErrNoCandidates = errors.New("mechanism: all utilities are zero")
)

// Best is R_best, the optimal non-private recommender: it always recommends
// a maximum-utility candidate (uniformly among ties). It attains accuracy 1
// by construction and satisfies no finite differential privacy guarantee.
type Best struct{}

// Name implements StreamMechanism.
func (Best) Name() string { return "best" }

// Uniform recommends every candidate with equal probability. It is
// perfectly private (ε = 0) and anchors the low end of the accuracy range.
type Uniform struct{}

// Name implements StreamMechanism.
func (Uniform) Name() string { return "uniform" }
