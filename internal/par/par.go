// Package par provides the bounded worker pool behind the experiment
// pipeline's per-target fan-out. Work items are indices, so callers keep
// results positionally aligned regardless of worker interleaving.
package par

import (
	"runtime"
	"sync"
)

// ForEach calls fn(0..n-1) across a worker pool bounded by
// runtime.GOMAXPROCS(0), the number of goroutines that can run at once (a
// GOMAXPROCS setting or a container CPU quota below the host's core count
// caps it). It returns once every call has completed. fn must be safe for
// concurrent invocation.
//
// Panic safety: a panic inside fn does not crash the pool's goroutines or
// deadlock the caller. The panicking worker stops, the remaining workers
// drain the remaining indices, and the first panic value is re-raised on
// the caller's goroutine once the pool is quiescent — matching the behavior
// of a plain sequential loop closely enough that callers need no special
// handling.
func ForEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Pre-filling a buffered channel keeps the feed non-blocking, so a
	// panicking (hence non-consuming) worker can never wedge the feeder.
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
				}
			}()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Map computes fn(0..n-1) on the ForEach pool and returns the results in
// index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
