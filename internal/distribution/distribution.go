// Package distribution provides the probability distributions that underlie
// the differentially private mechanisms in this repository: the Laplace
// distribution used by the Laplace mechanism (Dwork et al., TCC 2006) and
// the analytic machinery (pdf, cdf, and the distribution of the difference
// of two independent Laplace variables) needed to verify Lemma 3 of
// Machanavajjhala et al. (VLDB 2011) against Monte-Carlo estimates.
//
// All samplers take an explicit *rand.Rand so that experiments are
// reproducible; package rand in this repository derives deterministic
// per-task generators from a root seed.
package distribution

import (
	"errors"
	"math"
	"math/rand"
)

// ErrBadScale is returned by constructors when a non-positive scale is given.
var ErrBadScale = errors.New("distribution: scale must be positive")

// Laplace is the Laplace (double exponential) distribution with the given
// location (mean) and scale b. Its pdf is exp(-|x-loc|/b)/(2b).
//
// The zero value is not usable; construct with NewLaplace.
type Laplace struct {
	Loc   float64
	Scale float64
}

// NewLaplace returns a Laplace distribution with the given location and
// scale. It returns ErrBadScale if scale <= 0 or is not finite.
func NewLaplace(loc, scale float64) (Laplace, error) {
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(loc) {
		return Laplace{}, ErrBadScale
	}
	return Laplace{Loc: loc, Scale: scale}, nil
}

// Sample draws one variate using inverse-CDF sampling. The uniform variate is
// drawn from the open interval (0,1) to keep Log finite.
func (l Laplace) Sample(rng *rand.Rand) float64 {
	// u uniform in (-1/2, 1/2]; rand.Float64 is in [0,1).
	u := rng.Float64() - 0.5
	if u == -0.5 {
		// Probability-zero edge in exact arithmetic; nudge to keep the
		// logarithm finite.
		u = math.Nextafter(-0.5, 0)
	}
	return l.Loc - l.Scale*sign(u)*math.Log(1-2*math.Abs(u))
}

// PDF returns the probability density at x.
func (l Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x-l.Loc)/l.Scale) / (2 * l.Scale)
}

// CDF returns P[X <= x].
func (l Laplace) CDF(x float64) float64 {
	z := (x - l.Loc) / l.Scale
	if z < 0 {
		return 0.5 * math.Exp(z)
	}
	return 1 - 0.5*math.Exp(-z)
}

// Quantile returns the p-th quantile, the inverse of CDF. It panics if p is
// outside (0,1).
func (l Laplace) Quantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic("distribution: Laplace quantile requires p in (0,1)")
	}
	if p <= 0.5 {
		return l.Loc + l.Scale*math.Log(2*p)
	}
	return l.Loc - l.Scale*math.Log(2*(1-p))
}

// QuantileLog returns the quantile at probability p = e^{logP}, computed
// from the log-probability so that p arbitrarily close to 1 (logP → 0⁻)
// keeps full precision — Quantile(p) would round 1-p to zero there. It is
// the building block for sampling extreme order statistics.
func (l Laplace) QuantileLog(logP float64) float64 {
	if !(logP < 0) {
		panic("distribution: Laplace QuantileLog requires logP < 0")
	}
	const ln2 = math.Ln2
	if logP <= -ln2 { // p <= 1/2
		return l.Loc + l.Scale*(ln2+logP)
	}
	// p > 1/2: 1-p = -expm1(logP), computed without cancellation.
	return l.Loc - l.Scale*(ln2+math.Log(-math.Expm1(logP)))
}

// SampleMax draws the maximum of m independent Laplace variates with a
// single uniform draw: if U ~ Uniform(0,1) then U^{1/m} is distributed as
// the largest of m uniforms, and pushing it through the quantile function
// gives the largest of m Laplace draws. This is the closed-form "zero tail"
// used by the sparse noisy-max mechanisms: the tail's m zero-utility
// candidates need one sample, not m.
func (l Laplace) SampleMax(m int, rng *rand.Rand) float64 {
	if m < 1 {
		panic("distribution: Laplace SampleMax requires m >= 1")
	}
	u := rng.Float64()
	if u == 0 {
		u = math.Nextafter(0, 1) // probability-zero edge; keep Log finite
	}
	return l.QuantileLog(math.Log(u) / float64(m))
}

// Mean returns the distribution mean (the location parameter).
func (l Laplace) Mean() float64 { return l.Loc }

// Variance returns 2b².
func (l Laplace) Variance() float64 { return 2 * l.Scale * l.Scale }

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// LaplaceDiff is the distribution of X1 - X2 where X1, X2 are independent
// Laplace(0, b) variables. Its pdf (for x >= 0, symmetric about 0) is
//
//	f(x) = (1/(4b)) (1 + |x|/b) e^{-|x|/b}
//
// which is formula 859.011 of Dwight adapted as in Appendix E of the paper.
// LaplaceDiff underlies the closed-form Lemma 3 probability.
type LaplaceDiff struct {
	Scale float64
}

// NewLaplaceDiff returns the difference distribution for two independent
// Laplace(0, scale) variables.
func NewLaplaceDiff(scale float64) (LaplaceDiff, error) {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return LaplaceDiff{}, ErrBadScale
	}
	return LaplaceDiff{Scale: scale}, nil
}

// PDF returns the density of X1 - X2 at x.
func (d LaplaceDiff) PDF(x float64) float64 {
	a := math.Abs(x) / d.Scale
	return (1 + a) * math.Exp(-a) / (4 * d.Scale)
}

// CDF returns P[X1 - X2 <= x]. For x >= 0,
//
//	F(x) = 1 - (1/4) e^{-x/b} (2 + x/b)
//
// and F(-x) = 1 - F(x) by symmetry.
func (d LaplaceDiff) CDF(x float64) float64 {
	if x < 0 {
		return 1 - d.CDF(-x)
	}
	z := x / d.Scale
	return 1 - 0.25*math.Exp(-z)*(2+z)
}

// Sample draws X1 - X2 directly from two Laplace draws.
func (d LaplaceDiff) Sample(rng *rand.Rand) float64 {
	l := Laplace{Loc: 0, Scale: d.Scale}
	return l.Sample(rng) - l.Sample(rng)
}

// Lemma3WinProbability returns the closed-form probability from Lemma 3 of
// the paper: for utilities u1 >= u2 >= 0 and independent Laplace noise with
// scale b = 1/eps added to each,
//
//	P[u1 + X1 > u2 + X2] = 1 - (1/2) e^{-eps·Δ} - (eps·Δ/4) e^{-eps·Δ}
//
// where Δ = u1 - u2. The function accepts the utilities in either order and
// returns the probability that the *first* argument wins.
func Lemma3WinProbability(u1, u2, eps float64) float64 {
	if eps <= 0 {
		panic("distribution: Lemma3WinProbability requires eps > 0")
	}
	if u1 < u2 {
		return 1 - Lemma3WinProbability(u2, u1, eps)
	}
	z := eps * (u1 - u2)
	return 1 - 0.5*math.Exp(-z) - 0.25*z*math.Exp(-z)
}
