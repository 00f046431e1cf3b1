//go:build race

package graph_test

// raceEnabled reports whether the race detector is on; heap measurements
// skip under it (instrumentation allocates).
const raceEnabled = true
