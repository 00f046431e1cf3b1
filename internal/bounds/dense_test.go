package bounds

import "socialrec/internal/utility"

// The dense forms the bound tests compare against: one utility per
// candidate, zeros included. Serving and the experiments evaluate the
// sparse form only.

// tightestAccuracyBound is TightestAccuracyBoundSparse over a dense
// candidate vector u: len(u) is the candidate count, and u's zeros count
// as the implicit zeros.
func tightestAccuracyBound(u []float64, eps float64, t int) (float64, error) {
	return TightestAccuracyBoundSparse(u, len(u), eps, t)
}

// denseVector returns f's utility for every candidate of target r in
// candidate order, zeros included: the kernel's stream scattered over
// zeros and gathered at the candidates.
func denseVector(f utility.Function, v utility.View, r int) ([]float64, error) {
	sc, err := f.StreamSparse(v, r)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	full := make([]float64, v.NumNodes())
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		full[i] = x
	}
	candidates := utility.Candidates(v, r)
	out := make([]float64, len(candidates))
	for k, c := range candidates {
		out[k] = full[c]
	}
	return out, nil
}
