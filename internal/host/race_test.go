//go:build race

package host

// raceEnabled reports whether the race detector is active. Race builds
// overwrite every released receive buffer (wire.RxRelease), so a reference
// kept past its lease reads garbage at once.
const raceEnabled = true
