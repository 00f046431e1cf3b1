// Package par provides the bounded worker pool shared by batch serving
// (socialrec.BatchRecommend and friends) and the experiment pipeline's
// utility-vector fan-out. Work items are indices, so callers keep results
// positionally aligned regardless of worker interleaving.
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

// ForEachChunked partitions 0..n-1 into one contiguous half-open range per
// worker and calls fn(lo, hi) for each range. Compared with ForEach it
// trades work stealing for scheduling cost: there is one goroutine and one
// closure call per worker instead of one channel round-trip per index, and
// each worker writes a contiguous span of the caller's result slice, so it
// is the right shape for uniform per-item work like batch serving. fn must
// be safe for concurrent invocation. The pool is bounded by
// runtime.GOMAXPROCS(0) like ForEach's; with GOMAXPROCS 1 it degenerates
// to a single fn(0, n) call on the caller's goroutine.
//
// Panic safety matches ForEach: the first panic value from any chunk is
// re-raised on the caller's goroutine once every chunk has finished.
func ForEachChunked(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
				}
			}()
			fn(lo, hi)
		}(lo, hi)
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
