package utility

import (
	"testing"

	"socialrec/internal/stream"
)

// Tests for the streaming kernels. The contract is exact: StreamSparse must
// emit bit-for-bit the (idx, val) pairs Sparse materializes, in the same
// ascending order, across every utility and graph directedness — the
// streamed serving path's correctness reduces to this plus the mechanism
// consumers' own bit-identity tests. Reset must rewind to an identical
// replay (consumers are multi-pass), and Close must be idempotent.

func drain(t *testing.T, sc stream.Scorer) ([]int32, []float64) {
	t.Helper()
	var idx []int32
	var val []float64
	for {
		i, x, ok := sc.Next()
		if !ok {
			return idx, val
		}
		idx = append(idx, i)
		val = append(val, x)
	}
}

func TestStreamSparseMatchesSparse(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := sparseTestGraph(t, 60, 150, directed, 31)
		snap := g.Snapshot()
		for _, f := range allFunctions() {
			for r := 0; r < snap.NumNodes(); r++ {
				wantIdx, wantVal, err := f.Sparse(snap, r)
				if err != nil {
					t.Fatalf("%s Sparse(%d): %v", f.Name(), r, err)
				}
				sc, err := f.StreamSparse(snap, r)
				if err != nil {
					t.Fatalf("%s StreamSparse(%d): %v", f.Name(), r, err)
				}
				gotIdx, gotVal := drain(t, sc)
				if len(gotIdx) != len(wantIdx) {
					t.Fatalf("%s directed=%v r=%d: streamed %d pairs, materialized %d",
						f.Name(), directed, r, len(gotIdx), len(wantIdx))
				}
				for i := range wantIdx {
					if gotIdx[i] != wantIdx[i] || gotVal[i] != wantVal[i] {
						t.Fatalf("%s directed=%v r=%d pair %d: streamed (%d, %v) vs materialized (%d, %v)",
							f.Name(), directed, r, i, gotIdx[i], gotVal[i], wantIdx[i], wantVal[i])
					}
				}
				// Reset replays the identical sequence.
				sc.Reset()
				replayIdx, replayVal := drain(t, sc)
				if len(replayIdx) != len(wantIdx) {
					t.Fatalf("%s directed=%v r=%d: replay emitted %d pairs, want %d",
						f.Name(), directed, r, len(replayIdx), len(wantIdx))
				}
				for i := range wantIdx {
					if replayIdx[i] != wantIdx[i] || replayVal[i] != wantVal[i] {
						t.Fatalf("%s directed=%v r=%d: replay diverged at pair %d", f.Name(), directed, r, i)
					}
				}
				// Exhausted scorers keep reporting done; Close is idempotent.
				if _, _, ok := sc.Next(); ok {
					t.Fatalf("%s r=%d: Next after exhaustion returned a pair", f.Name(), r)
				}
				sc.Close()
				sc.Close()
			}
		}
	}
}

func TestStreamSparseTargetValidation(t *testing.T) {
	g := sparseTestGraph(t, 10, 20, false, 5)
	snap := g.Snapshot()
	for _, f := range allFunctions() {
		for _, r := range []int{-1, snap.NumNodes()} {
			if _, err := f.StreamSparse(snap, r); err == nil {
				t.Fatalf("%s StreamSparse(%d): expected range error", f.Name(), r)
			}
		}
	}
}
