//go:build !race

package soak

import "time"

// Plain builds need only a token yield per tick: processing keeps up
// with the injected clock and the compressed-time target (<60s wall per
// simulated hour) applies.
const (
	raceEnabled     = false
	tickYieldBase   = 5 * time.Microsecond
	tickYieldPerPkt = 200 * time.Nanosecond
	// settleMax bounds how long one tick waits for the world to settle.
	settleMax = 10 * time.Millisecond

	// fastpathP99Bound is the baseline fast-path p99 service-time SLO.
	fastpathP99Bound = 2 * time.Millisecond
)
