package experiment

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestParallelMapVisitsEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		visits := make([]atomic.Int32, n)
		parallelMap(n, func(i int) struct{} { visits[i].Add(1); return struct{}{} })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestParallelMapKeepsResultsPositionallyAligned(t *testing.T) {
	n := 4 * runtime.NumCPU() * 97
	got := parallelMap(n, func(i int) int { return i * i })
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d: workers scrambled positions", i, v, i*i)
		}
	}
}

func TestParallelMapPropagatesPanic(t *testing.T) {
	for _, n := range []int{1, 64} { // sequential and pooled paths
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("n=%d: panic swallowed", n)
				}
				if got, ok := p.(string); !ok || got != "boom" {
					t.Fatalf("n=%d: recovered %v, want \"boom\"", n, p)
				}
			}()
			parallelMap(n, func(i int) int {
				if i == n/2 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestParallelMapSurvivesPanicWithoutLeakingWork(t *testing.T) {
	// After a panic, parallelMap must still return (no deadlock) and the
	// pool must remain usable for subsequent calls.
	func() {
		defer func() { recover() }() //nolint:errcheck
		parallelMap(128, func(i int) int {
			if i%2 == 0 {
				panic(i)
			}
			return i
		})
	}()
	var count atomic.Int32
	parallelMap(256, func(int) int32 { return count.Add(1) })
	if got := count.Load(); got != 256 {
		t.Fatalf("post-panic parallelMap ran %d of 256 items", got)
	}
}

// TestParallelMapBoundedByGOMAXPROCS: under GOMAXPROCS(1) the pool runs one
// worker, so no two fn calls overlap, however many CPUs the host has.
// Each call yields so that a second worker, if one existed, would get
// scheduled inside it.
func TestParallelMapBoundedByGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var running, maxRunning atomic.Int32
	parallelMap(256, func(int) int32 {
		now := running.Add(1)
		for {
			old := maxRunning.Load()
			if now <= old || maxRunning.CompareAndSwap(old, now) {
				break
			}
		}
		runtime.Gosched()
		return running.Add(-1)
	})
	if got := maxRunning.Load(); got != 1 {
		t.Fatalf("%d fn calls ran at once under GOMAXPROCS(1), want 1", got)
	}
}
