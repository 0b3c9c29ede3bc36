//go:build !race

package solver

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-exactness assertions are skipped under it.
const raceEnabled = false
