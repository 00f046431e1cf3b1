package experiment

import (
	"socialrec/internal/par"
	"socialrec/internal/utility"
)

// The per-target utility-vector computation is the dominant cost of every
// experiment run (a full graph scan per target) and is a pure function of
// the immutable snapshot, so it fans out across the shared internal/par
// worker pool. The mechanism-evaluation stage that consumes the vectors
// stays sequential: it shares one Monte-Carlo RNG, and running it in
// target order keeps results bit-identical to the pre-parallel
// implementation (the golden tests pin them).

// targetVector is the deterministic pre-processing result for one sampled
// target.
type targetVector struct {
	vec  []float64
	umax float64
	err  error
}

// computeVectors runs the utility-vector stage for every target in
// parallel.
func computeVectors(snap utility.View, u utility.Function, targets []int) []targetVector {
	return par.Map(len(targets), func(i int) targetVector {
		full, err := utility.Vector(u, snap, targets[i])
		if err != nil {
			return targetVector{err: err}
		}
		vec := utility.Compact(full, utility.Candidates(snap, targets[i]))
		return targetVector{vec: vec, umax: utility.Max(vec)}
	})
}
