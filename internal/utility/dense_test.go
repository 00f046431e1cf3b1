package utility

// The dense forms of a utility vector, which serving never builds: the
// oracles the kernel and rewiring tests compare against.

// denseVector returns f's utility for recommending every node to target r
// as a dense length-v.NumNodes() slice: the kernel's stream scattered over
// zeros, so existing neighbors of r and r itself read 0.
func denseVector(f Function, v View, r int) ([]float64, error) {
	sc, err := f.StreamSparse(v, r)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	vec := make([]float64, v.NumNodes())
	for {
		i, x, ok := sc.Next()
		if !ok {
			return vec, nil
		}
		vec[i] = x
	}
}

// compact gathers vec's entries at the candidate indices, producing the
// dense utility vector over the candidate domain.
func compact(vec []float64, candidates []int) []float64 {
	out := make([]float64, len(candidates))
	for i, c := range candidates {
		out[i] = vec[c]
	}
	return out
}
