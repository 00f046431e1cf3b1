package mechanism

import (
	"fmt"
	"math"
)

// Smoothing is the sampling/linear-smoothing mechanism A_S(x) of Appendix F
// (Definition 7): with probability x it samples a recommendation from the
// wrapped base algorithm A, and with probability 1-x it recommends uniformly
// at random. If A is µ-accurate, A_S(x) is x·µ-accurate and
// ln(1 + nx/(1-x))-differentially private (Theorem 5) — crucially without
// requiring the full utility vector, only the ability to sample from A.
type Smoothing struct {
	// X in [0, 1) is the mixing weight toward the base mechanism.
	X float64
	// Base is the possibly non-private algorithm A to smooth; typically
	// Best (µ = 1).
	Base StreamMechanism
}

// Name implements StreamMechanism.
func (s Smoothing) Name() string { return fmt.Sprintf("smoothing(x=%g,%s)", s.X, s.Base.Name()) }

func (s Smoothing) validate() error {
	if !(s.X >= 0 && s.X < 1) {
		return fmt.Errorf("mechanism: smoothing x=%g outside [0,1)", s.X)
	}
	if s.Base == nil {
		return fmt.Errorf("mechanism: smoothing requires a base mechanism")
	}
	return nil
}

// Epsilon returns the differential privacy level Theorem 5 guarantees for
// this x on an n-candidate vector: ln(1 + nx/(1-x)).
func (s Smoothing) Epsilon(n int) float64 {
	if s.X == 0 {
		return 0
	}
	return math.Log(1 + float64(n)*s.X/(1-s.X))
}

// SmoothingXForEpsilon inverts Theorem 5: the x that makes A_S(x) exactly
// ε-differentially private over n candidates is x = (e^ε - 1)/(e^ε - 1 + n).
// With ε = 2c·ln n this reproduces the paper's closed form
// x = (n^{2c} - 1)/(n^{2c} - 1 + n).
func SmoothingXForEpsilon(eps float64, n int) (float64, error) {
	if !(eps >= 0) {
		return 0, ErrBadEpsilon
	}
	if n < 1 {
		return 0, ErrEmpty
	}
	em1 := math.Expm1(eps)
	return em1 / (em1 + float64(n)), nil
}
