package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"socialrec/internal/distribution"
	"socialrec/internal/stats"
)

// The naive dense forms of the mechanisms: one utility entry per
// candidate, no support and no tail. Serving never uses them; they are the
// oracles the equivalence and bit-identity tests hold the streamed draws
// and the sparse closed forms to. Each is the textbook definition, written
// for clarity, not speed.

// closedForm is a mechanism with both a streamed draw and a sparse closed
// form, so it has a dense law to compare against.
type closedForm interface {
	StreamMechanism
	SparseDistribution
}

// denseMax returns the largest utility in u, floored at 0.
func denseMax(u []float64) float64 {
	max := 0.0
	for _, x := range u {
		if x > max {
			max = x
		}
	}
	return max
}

// denseProbabilities returns the closed-form law of m over the dense
// vector u: Definition 5's exp((ε/Δf)(u_i - u_max))/Z for Exponential, mass
// split over the maxima for Best, 1/n for Uniform, and
// (1-x)/n + x·p_i over the base law for Smoothing.
func denseProbabilities(m StreamMechanism, u []float64) []float64 {
	p := make([]float64, len(u))
	switch m := m.(type) {
	case Exponential:
		scale := m.Epsilon / m.Sensitivity
		max := denseMax(u)
		var z float64
		for i, x := range u {
			p[i] = math.Exp(scale * (x - max))
			z += p[i]
		}
		for i := range p {
			p[i] /= z
		}
	case Best:
		max := denseMax(u)
		ties := 0
		for _, x := range u {
			if x == max {
				ties++
			}
		}
		for i, x := range u {
			if x == max {
				p[i] = 1 / float64(ties)
			}
		}
	case Uniform:
		for i := range p {
			p[i] = 1 / float64(len(u))
		}
	case Smoothing:
		n := float64(len(u))
		for i, pi := range denseProbabilities(m.Base, u) {
			p[i] = (1-m.X)/n + m.X*pi
		}
	default:
		panic(fmt.Sprintf("mechanism: %s has no dense closed form", m.Name()))
	}
	return p
}

// denseCDF returns the cumulative unnormalized exponential weights of u:
// cdf[i] = Σ_{j<=i} exp((ε/Δf)(u_j - u_max)), accumulated in index order.
func denseCDF(e Exponential, u []float64) []float64 {
	scale := e.Epsilon / e.Sensitivity
	max := denseMax(u)
	cdf := make([]float64, len(u))
	var acc float64
	for i, x := range u {
		acc += math.Exp(scale * (x - max))
		cdf[i] = acc
	}
	return cdf
}

// denseSampleCDF inverts a cumulative weight vector with one uniform: the
// first index whose prefix sum exceeds it, by binary search, rounding
// falling through to the last candidate.
func denseSampleCDF(cdf []float64, rng *rand.Rand) int {
	target := rng.Float64() * cdf[len(cdf)-1]
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] > target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// denseExponential draws from the exponential mechanism over u by
// inverse-CDF sampling.
func denseExponential(e Exponential, u []float64, rng *rand.Rand) int {
	return denseSampleCDF(denseCDF(e, u), rng)
}

// denseLaplace is report-noisy-max: the argmax of u plus one Laplace(Δf/ε)
// variate per entry, drawn in index order.
func denseLaplace(l Laplace, u []float64, rng *rand.Rand) int {
	noise := distribution.Laplace{Loc: 0, Scale: l.Sensitivity / l.Epsilon}
	best := 0
	bestVal := u[0] + noise.Sample(rng)
	for i := 1; i < len(u); i++ {
		if v := u[i] + noise.Sample(rng); v > bestVal {
			best = i
			bestVal = v
		}
	}
	return best
}

// denseTopIndices returns the indices of the k largest values in xs: a
// stable descending sort, so ties go to the lower index.
func denseTopIndices(xs []float64, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case xs[a] > xs[b]:
			return -1
		case xs[a] < xs[b]:
			return 1
		default:
			return 0
		}
	})
	return idx[:k]
}

// denseTopKLaplace noises every utility once and releases the k largest
// noisy values, best first.
func denseTopKLaplace(eps, sens float64, u []float64, k int, rng *rand.Rand) []int {
	noise := distribution.Laplace{Loc: 0, Scale: sens / eps}
	noisy := make([]float64, len(u))
	for i, x := range u {
		noisy[i] = x + noise.Sample(rng)
	}
	return denseTopIndices(noisy, k)
}

// denseTopKPeel runs k exponential draws at ε/k without replacement,
// swap-removing each winner, and returns the picks in selection order.
func denseTopKPeel(eps, sens float64, u []float64, k int, rng *rand.Rand) []int {
	round := Exponential{Epsilon: eps / float64(k), Sensitivity: sens}
	remaining := slices.Clone(u)
	alive := make([]int, len(u)) // alive[i] = original index at slot i
	for i := range alive {
		alive[i] = i
	}
	out := make([]int, 0, k)
	for len(out) < k {
		idx := denseExponential(round, remaining, rng)
		out = append(out, alive[idx])
		last := len(remaining) - 1
		remaining[idx], remaining[last] = remaining[last], remaining[idx]
		alive[idx], alive[last] = alive[last], alive[idx]
		remaining, alive = remaining[:last], alive[:last]
	}
	return out
}

// denseExpectedAccuracy is Definition 2 over the dense law:
// Σ p_i·u_i / u_max, for u with a positive entry.
func denseExpectedAccuracy(m StreamMechanism, u []float64) float64 {
	p := denseProbabilities(m, u)
	terms := make([]float64, len(u))
	for i := range u {
		terms[i] = p[i] * u[i]
	}
	return stats.Sum(terms) / denseMax(u)
}

// setAccuracy is the accuracy of a k-recommendation set under the natural
// extension of Definition 2: the chosen candidates' utility sum over the k
// largest utilities' sum, what the non-private top k attains.
func setAccuracy(u []float64, chosen []int) float64 {
	var ideal, got float64
	for _, i := range denseTopIndices(u, len(chosen)) {
		ideal += u[i]
	}
	for _, i := range chosen {
		got += u[i]
	}
	return got / ideal
}

// tailFree is u as a SparseVec whose support is every entry: its sparse
// form without a zero tail, over which each streamed draw (through
// supportStream) is bit-identical to the dense oracle.
func tailFree(u []float64) SparseVec { return SparseVec{Val: u, N: len(u)} }
