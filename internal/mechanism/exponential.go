package mechanism

import "fmt"

// Exponential is the exponential mechanism of Definition 5 (McSherry &
// Talwar adapted to social recommendations): candidate i is recommended with
// probability proportional to exp((ε/Δf)·u_i), where Δf is the utility
// function's sensitivity. With Δf an upper bound on twice the per-entry
// change of the utility vector under a single edge flip (which every
// utility.Function in this repository guarantees), the mechanism is
// ε-differentially private (Theorem 4).
type Exponential struct {
	// Epsilon is the privacy parameter ε > 0.
	Epsilon float64
	// Sensitivity is Δf > 0 for the utility function in use.
	Sensitivity float64
}

// Name implements StreamMechanism.
func (e Exponential) Name() string { return fmt.Sprintf("exponential(eps=%g)", e.Epsilon) }

func (e Exponential) validate() error {
	if !(e.Epsilon > 0) {
		return ErrBadEpsilon
	}
	if !(e.Sensitivity > 0) {
		return ErrBadSens
	}
	return nil
}
