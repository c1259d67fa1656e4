//go:build race

package cache

// raceEnabled reports whether the race detector is active; its runtime
// changes heap sizes and allocation counts, so the heap pins are skipped
// under -race.
const raceEnabled = true
