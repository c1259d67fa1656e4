//go:build race

package lab

// raceEnabled reports whether the race detector is active; its runtime
// changes sync.Pool retention and allocation counts, so the alloc-budget
// assertions are skipped under -race.
const raceEnabled = true
