package mechanism

import "fmt"

// Laplace is the Laplace mechanism of Definition 6: independent
// Laplace(Δf/ε) noise is added to every utility, and the candidate with the
// maximal noisy utility is recommended. Treating each candidate as a
// histogram bin, the noisy vector is an ε-differentially private histogram
// release (Dwork et al.), and reporting only the argmax is post-processing,
// so the mechanism is ε-differentially private (Theorem 4). Unlike the
// Exponential mechanism it has no closed-form probability vector for n > 2;
// Lemma 3 (Appendix E) gives the n = 2 closed form,
// distribution.Lemma3WinProbability.
type Laplace struct {
	// Epsilon is the privacy parameter ε > 0.
	Epsilon float64
	// Sensitivity is Δf > 0 for the utility function in use.
	Sensitivity float64
}

// Name implements StreamMechanism.
func (l Laplace) Name() string { return fmt.Sprintf("laplace(eps=%g)", l.Epsilon) }

func (l Laplace) validate() error {
	if !(l.Epsilon > 0) {
		return ErrBadEpsilon
	}
	if !(l.Sensitivity > 0) {
		return ErrBadSens
	}
	return nil
}
