// Package bounds implements the paper's privacy-accuracy trade-off theory:
// the ε lower bound of Lemma 1, the accuracy ceiling of Corollary 1 (the
// "Theoretical Bound" curve in every figure), the asymptotic Lemma 2 and
// Theorems 1-3 floors, the node-identity-privacy variant of Appendix A, and
// the per-target tightened bound the experiments evaluate by scanning the
// (c, k) trade-off over the observed utility vector.
package bounds

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned on invalid parameters.
var (
	ErrParams = errors.New("bounds: invalid parameters")
	ErrNoMax  = errors.New("bounds: utility vector has no positive entry")
)

// Lemma1Epsilon returns the Lemma 1 privacy floor for a (1-δ)-accurate
// mechanism:
//
//	ε >= (1/t) ( ln((c-δ)/δ) + ln((n-k)/(k+1)) )
//
// where k of the n candidates have utility above (1-c)·u_max and t edge
// alterations suffice to promote a low-utility node to the maximum. The
// bound requires 0 < δ < c < 1, 0 <= k < n, and t >= 1.
func Lemma1Epsilon(n, k, t int, c, delta float64) (float64, error) {
	if n < 2 || k < 0 || k >= n || t < 1 || !(delta > 0) || !(delta < c) || !(c < 1) {
		return 0, fmt.Errorf("%w: Lemma1Epsilon(n=%d, k=%d, t=%d, c=%g, delta=%g)", ErrParams, n, k, t, c, delta)
	}
	return (math.Log((c-delta)/delta) + math.Log(float64(n-k)/float64(k+1))) / float64(t), nil
}

// Corollary1Accuracy returns the accuracy ceiling of Corollary 1:
//
//	1-δ <= 1 - c(n-k) / (n-k + (k+1)·e^{ε·t})
//
// No ε-differentially private mechanism whose utility function admits the
// (c, k, t) structure can exceed this expected accuracy. The exponent is
// computed in log space so that huge ε·t saturates to the trivial ceiling 1
// instead of overflowing.
func Corollary1Accuracy(n, k int, c, eps float64, t int) (float64, error) {
	if n < 2 || k < 0 || k >= n || t < 1 || !(c > 0) || !(c < 1) || !(eps > 0) {
		return 0, fmt.Errorf("%w: Corollary1Accuracy(n=%d, k=%d, c=%g, eps=%g, t=%d)", ErrParams, n, k, c, eps, t)
	}
	// denom = (n-k) + (k+1)·e^{εt}; guard the exponential.
	exponent := eps * float64(t)
	nk := float64(n - k)
	var denom float64
	if exponent > 700 { // e^700 ~ 1e304; beyond this the bound is 1.
		return 1, nil
	}
	denom = nk + float64(k+1)*math.Exp(exponent)
	bound := 1 - c*nk/denom
	if bound < 0 {
		bound = 0
	}
	if bound > 1 {
		bound = 1
	}
	return bound, nil
}

// TightestAccuracyBoundSparse evaluates the per-target theoretical ceiling
// the experiments plot over the sparse utility form: the positive support
// val plus ncand-len(val) implicit zeros. Corollary 1 holds for every
// choice of c in (0,1) with k(c) = |{i : u_i > (1-c)·u_max}|, so the bound
// is minimized over the thresholds induced by the distinct utility values.
// Only the positive utilities induce usable thresholds (θ <= 0 gives
// c >= 1, outside Corollary 1's range); the zeros enter only through the
// candidate count n and the c → 1 probe, so the scan costs O(nnz log nnz)
// instead of O(n log n). t is the exact rewiring count for the target
// (utility.Function.RewireCount).
func TightestAccuracyBoundSparse(val []float64, ncand int, eps float64, t int) (float64, error) {
	if !(eps > 0) || t < 1 {
		return 0, fmt.Errorf("%w: TightestAccuracyBoundSparse(eps=%g, t=%d)", ErrParams, eps, t)
	}
	n := ncand
	if n < 2 {
		return 0, fmt.Errorf("%w: need at least 2 candidates", ErrParams)
	}
	umax := 0.0
	for _, x := range val {
		if x > umax {
			umax = x
		}
	}
	if umax == 0 {
		return 0, ErrNoMax
	}
	// Sort the distinct utilities descending; each threshold θ strictly
	// below umax induces c = 1 - θ/umax and k = #{u_i > θ}.
	sorted := append([]float64(nil), val...)
	slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	best := 1.0
	k := 0
	for idx := 0; idx < len(sorted); idx++ {
		theta := sorted[idx]
		// k counts entries strictly above theta (implicit zeros never are).
		for k < len(sorted) && sorted[k] > theta {
			k++
		}
		if k == 0 || k >= n {
			continue
		}
		c := 1 - theta/umax
		if !(c > 0 && c < 1) {
			continue
		}
		b, err := Corollary1Accuracy(n, k, c, eps, t)
		if err != nil {
			continue
		}
		if b < best {
			best = b
		}
		// Skip duplicates of this threshold.
		for idx+1 < len(sorted) && sorted[idx+1] == theta {
			idx++
		}
	}
	// Also probe c -> 1 (θ -> 0): every positive-utility node is "high".
	if kpos := len(sorted); kpos > 0 && kpos < n {
		for _, c := range []float64{0.999, 0.99} {
			if b, err := Corollary1Accuracy(n, kpos, c, eps, t); err == nil && b < best {
				best = b
			}
		}
	}
	return best, nil
}

// Lemma2Epsilon returns the Lemma 2 floor for constant accuracy under the
// concentration axiom with parameter β:
//
//	ε >= (ln n - ln β - ln ln n) / t
//
// Negative intermediate values (tiny n) clamp to 0: the asymptotic statement
// carries no content there.
func Lemma2Epsilon(n, beta, t int) (float64, error) {
	if n < 3 || beta < 1 || t < 1 {
		return 0, fmt.Errorf("%w: Lemma2Epsilon(n=%d, beta=%d, t=%d)", ErrParams, n, beta, t)
	}
	v := (math.Log(float64(n)) - math.Log(float64(beta)) - math.Log(math.Log(float64(n)))) / float64(t)
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Theorem1Epsilon returns the generic leading-order floor of Theorem 1 for
// any exchangeable, concentrated utility on a graph with maximum degree
// dmax = α·ln n: ε >= 1/(4α) = ln(n)/(4·dmax). Below that ε no constant
// accuracy is possible regardless of the utility function.
func Theorem1Epsilon(n, dmax int) (float64, error) {
	if n < 3 || dmax < 1 {
		return 0, fmt.Errorf("%w: Theorem1Epsilon(n=%d, dmax=%d)", ErrParams, n, dmax)
	}
	return math.Log(float64(n)) / (4 * float64(dmax)), nil
}

// Theorem2Epsilon returns the leading-order common-neighbors floor of
// Theorem 2 for a target of degree dr: with dr = α·ln n and t <= dr + 2
// (Claim 3), ε >= (1-o(1))/α = ln(n)/(dr+2) at leading order.
func Theorem2Epsilon(n, dr int) (float64, error) {
	if n < 3 || dr < 0 {
		return 0, fmt.Errorf("%w: Theorem2Epsilon(n=%d, dr=%d)", ErrParams, n, dr)
	}
	return math.Log(float64(n)) / float64(dr+2), nil
}

// Theorem3Epsilon returns the weighted-paths floor of Theorem 3 including
// the finite-γ correction of Appendix C: with s = γ·dmax, the rewiring
// argument needs the smallest c >= 1 satisfying (c-1) >= (c+1)²·s/(1-s), and
// the floor becomes ε >= ln(n) / ((2c-1)·(dr+2)). For s -> 0 the correction
// vanishes (c -> 1) and the bound matches Theorem 2; for s >= 1/9 the
// quadratic has no root and the rewiring argument gives no non-trivial
// bound, reported as ε >= 0.
func Theorem3Epsilon(n, dr, dmax int, gamma float64) (float64, error) {
	if n < 3 || dr < 0 || dmax < 1 || !(gamma > 0 && gamma < 1) {
		return 0, fmt.Errorf("%w: Theorem3Epsilon(n=%d, dr=%d, dmax=%d, gamma=%g)", ErrParams, n, dr, dmax, gamma)
	}
	c, ok := weightedPathRewireFactor(gamma * float64(dmax))
	if !ok {
		return 0, nil
	}
	return math.Log(float64(n)) / ((2*c - 1) * float64(dr+2)), nil
}

// weightedPathRewireFactor solves s·c² + (3s-1)·c + 1 <= 0 for the smallest
// c (the rewiring blow-up factor of Appendix C). It reports ok=false when
// s >= (5-4)/9 region has no real root (discriminant 9s²-10s+1 < 0).
func weightedPathRewireFactor(s float64) (float64, bool) {
	if s <= 0 {
		return 1, true
	}
	disc := 9*s*s - 10*s + 1
	if disc < 0 {
		return 0, false
	}
	c := ((1 - 3*s) - math.Sqrt(disc)) / (2 * s)
	if c < 1 {
		c = 1
	}
	return c, true
}

// NodePrivacyEpsilon returns the node-identity-privacy floor of Appendix A:
// a node's whole neighborhood can be rewired in t = 2 steps, so constant
// accuracy requires ε >= (ln n - o(ln n))/2, reported at leading order.
func NodePrivacyEpsilon(n int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("%w: NodePrivacyEpsilon(n=%d)", ErrParams, n)
	}
	return math.Log(float64(n)) / 2, nil
}
