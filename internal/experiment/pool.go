package experiment

import (
	"runtime"
	"sync"
)

// parallelMap computes fn(0..n-1) across a worker pool bounded by
// runtime.GOMAXPROCS(0), the number of goroutines that can run at once (a
// GOMAXPROCS setting or a container CPU quota below the host's core count
// caps it), and returns the results in index order, so they stay
// positionally aligned regardless of worker interleaving. fn must be safe
// for concurrent invocation.
//
// Panic safety: a panic inside fn does not crash the pool's goroutines or
// deadlock the caller. The panicking worker stops, the remaining workers
// drain the remaining indices, and the first panic value is re-raised on
// the caller's goroutine once the pool is quiescent — matching the behavior
// of a plain sequential loop closely enough that callers need no special
// handling.
func parallelMap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			out[i] = fn(i)
		}
		return out
	}
	// Pre-filling a buffered channel keeps the feed non-blocking, so a
	// panicking (hence non-consuming) worker can never wedge the feeder.
	next := make(chan int, n)
	for i := range n {
		next <- i
	}
	close(next)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
				}
			}()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return out
}
