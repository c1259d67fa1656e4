package sn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/wire"
)

// This file is the slow path's failure-containment layer. The pipe-terminus
// fast path is trusted code, but service modules are third-party logic
// (§4.2, §6.3): a module may panic, hang, error on every packet, or — on
// the IPC transport — crash its server outright. None of that may take the
// SN down or wedge a dispatcher worker. Containment has four parts:
//
//   - panic recovery on every transport (a recovered panic becomes a
//     module error; on IPC it additionally crashes the module-server
//     connection, modeling the death of a separate module process);
//   - a per-invoke deadline driven by the SN's injected clock, so a hung
//     module times out instead of capturing a worker forever;
//   - automatic redial of a crashed IPC module server with the pipe
//     layer's capped-exponential deterministic-jitter backoff;
//   - a per-module circuit breaker that trips after a run of consecutive
//     failures and sheds packets to a degraded action until a half-open
//     probe proves the module healthy again.

// BreakerState is the circuit-breaker state of one module.
type BreakerState int32

const (
	// BreakerClosed: invocations flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: invocations are shed to the degraded action until the
	// cooldown expires.
	BreakerOpen
	// BreakerHalfOpen: one probe invocation is in flight; everything else
	// is still shed. The probe's outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String names the state for logs and the health snapshot.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state-%d", int32(s))
	}
}

// DegradedAction selects what an open breaker does with the module's
// slow-path packets.
type DegradedAction int

const (
	// DegradedDrop discards shed packets (the default): overload and
	// misbehavior are contained by losing that module's traffic only.
	DegradedDrop DegradedAction = iota
	// DegradedForward passes shed packets through unmodified to a
	// configured fallback next hop (e.g. another SN hosting the same
	// module), so the service degrades to extra latency instead of loss.
	DegradedForward
)

// ModulePanicError is what a recovered module panic surfaces as: an
// ordinary module error carrying the panic value and stack, so the caller
// (dispatcher, breaker, operator) sees a contained failure instead of a
// dead process.
type ModulePanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *ModulePanicError) Error() string {
	return fmt.Sprintf("sn: module panicked: %v", e.Value)
}

// ModuleHealth is the containment snapshot of one registered module,
// exposed through SN.ModuleHealth() and the control-plane "health" operation.
type ModuleHealth struct {
	Service   wire.ServiceID `json:"service"`
	Name      string         `json:"name"`
	Transport string         `json:"transport"`
	// State is the breaker state ("closed", "open", "half-open").
	State string `json:"state"`
	// ConsecutiveFailures is the current run of failed invocations; it
	// resets on any success.
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	// Handled counts invocations that returned a decision.
	Handled uint64 `json:"handled"`
	// Dropped counts packets shed at submit because the queue was full.
	Dropped uint64 `json:"dropped"`
	// Errored counts failed invocations of any cause (module error,
	// timeout, panic, crashed IPC server).
	Errored uint64 `json:"errored"`
	// Timeouts counts invocations that exceeded the module deadline
	// (a subset of Errored).
	Timeouts uint64 `json:"timeouts"`
	// Panics counts recovered module panics.
	Panics uint64 `json:"panics"`
	// Restarts counts successful redials of the IPC module server.
	Restarts uint64 `json:"restarts"`
	// BreakerTrips counts transitions to open (including a failed
	// half-open probe re-opening).
	BreakerTrips uint64 `json:"breaker_trips"`
	// BreakerRecoveries counts half-open probes that closed the breaker.
	BreakerRecoveries uint64 `json:"breaker_recoveries"`
	// Shed counts packets diverted to the degraded action while the
	// breaker was open.
	Shed uint64 `json:"shed"`
}

// breaker is one module's circuit breaker. A nil breaker is valid and
// always allows (the feature is armed per module with WithBreaker).
type breaker struct {
	threshold int
	cooldown  time.Duration
	clk       clock.Clock

	mu          sync.Mutex
	state       BreakerState
	consecFails uint64
	openUntil   time.Time
	probing     bool

	trips      atomic.Uint64
	recoveries atomic.Uint64
}

func newBreaker(threshold int, cooldown time.Duration, clk clock.Clock) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, clk: clk}
}

// allow reports whether an invocation may proceed. Open breakers start a
// single half-open probe once the cooldown has elapsed; concurrent
// arrivals while the probe is in flight are shed.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.clk.Now().Before(b.openUntil) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// onResult records one invocation outcome and drives the state machine:
// consecutive failures trip a closed breaker, a failed probe re-opens for
// another cooldown, a successful probe closes the breaker.
func (b *breaker) onResult(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if b.state == BreakerHalfOpen {
			b.state = BreakerClosed
			b.recoveries.Add(1)
		}
		b.probing = false
		b.consecFails = 0
		return
	}
	b.consecFails++
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.state = BreakerOpen
		b.openUntil = b.clk.Now().Add(b.cooldown)
		b.trips.Add(1)
	case BreakerClosed:
		if b.consecFails >= uint64(b.threshold) {
			b.state = BreakerOpen
			b.openUntil = b.clk.Now().Add(b.cooldown)
			b.trips.Add(1)
		}
	}
}

// snapshot returns the state, current failure run, and transition counts.
func (b *breaker) snapshot() (state BreakerState, consecFails, trips, recoveries uint64) {
	if b == nil {
		return BreakerClosed, 0, 0, 0
	}
	b.mu.Lock()
	state, consecFails = b.state, b.consecFails
	b.mu.Unlock()
	return state, consecFails, b.trips.Load(), b.recoveries.Load()
}
