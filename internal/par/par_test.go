package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		visits := make([]atomic.Int32, n)
		ForEach(n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestMapKeepsResultsPositionallyAligned(t *testing.T) {
	n := 4 * runtime.NumCPU() * 97
	got := Map(n, func(i int) int { return i * i })
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d: workers scrambled positions", i, v, i*i)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, n := range []int{1, 64} { // sequential and pooled paths
		n := n
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
			ForEach(n, func(i int) {
				if i == n/2 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForEachSurvivesPanicWithoutLeakingWork(t *testing.T) {
	// After a panic, ForEach must still return (no deadlock) and the pool
	// must remain usable for subsequent calls.
	func() {
		defer func() { recover() }() //nolint:errcheck
		ForEach(128, func(i int) {
			if i%2 == 0 {
				panic(i)
			}
		})
	}()
	var count atomic.Int32
	ForEach(256, func(i int) { count.Add(1) })
	if got := count.Load(); got != 256 {
		t.Fatalf("post-panic ForEach ran %d of 256 items", got)
	}
}

// TestForEachBoundedByGOMAXPROCS: under GOMAXPROCS(1) the pool runs one
// worker, so no two fn calls overlap, however many CPUs the host has.
// Each call yields so that a second worker, if one existed, would get
// scheduled inside it.
func TestForEachBoundedByGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var running, maxRunning atomic.Int32
	ForEach(256, func(int) {
		now := running.Add(1)
		for {
			old := maxRunning.Load()
			if now <= old || maxRunning.CompareAndSwap(old, now) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
	})
	if got := maxRunning.Load(); got != 1 {
		t.Fatalf("%d fn calls ran at once under GOMAXPROCS(1), want 1", got)
	}
}
