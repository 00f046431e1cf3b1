//go:build !race

package recserver

// raceEnabled reports whether the race detector is on; allocation-count
// assertions skip under it (instrumentation allocates).
const raceEnabled = false
