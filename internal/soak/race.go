//go:build race

package soak

import "time"

// The race detector slows every layer by an order of magnitude, so the
// tick loop yields far more real time per injected packet to keep the
// simulated clock from outrunning actual processing. Race-mode runs
// trade the wall-clock compression target for detection coverage.
const (
	raceEnabled     = true
	tickYieldBase   = 50 * time.Microsecond
	tickYieldPerPkt = 20 * time.Microsecond
	// settleMax bounds how long one tick waits for the world to settle.
	settleMax = 50 * time.Millisecond

	// fastpathP99Bound is loosened an order of magnitude under the race
	// detector: it slows genuine service time by roughly that factor,
	// and the plain-build 2ms SLO is enforced by the non-race suite.
	fastpathP99Bound = 20 * time.Millisecond
)
