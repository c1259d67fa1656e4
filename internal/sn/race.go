//go:build race

package sn

// raceEnabled reports whether the race detector is active. Race builds
// overwrite a recycled Packet (Packet.recycle), and the race runtime changes
// sync.Pool retention and allocation counts, so the alloc-budget tests skip
// themselves under it.
const raceEnabled = true
