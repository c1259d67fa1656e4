//go:build race

package wire

// poisonReleased makes RxRelease overwrite what it is given: race builds
// are the ones the release-safety tests run under.
const poisonReleased = true
