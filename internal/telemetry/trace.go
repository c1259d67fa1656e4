package telemetry

import (
	"fmt"

	"interedge/internal/wire"
)

// TracePoint identifies where in the packet path a trace event fired.
type TracePoint uint8

const (
	// TraceRx: a decrypted packet entered the pipe-terminus.
	TraceRx TracePoint = iota
	// TraceFastPath: the packet hit the decision cache.
	TraceFastPath
	// TraceSlowPath: the packet was queued to a service module.
	TraceSlowPath
	// TraceForward: one copy of the packet was forwarded to Dst.
	TraceForward
	// TraceDrop: the packet was dropped (cached drop rule, no module, or
	// full slow-path queue).
	TraceDrop
)

// String names the trace point for logs.
func (p TracePoint) String() string {
	switch p {
	case TraceRx:
		return "rx"
	case TraceFastPath:
		return "fastpath"
	case TraceSlowPath:
		return "slowpath"
	case TraceForward:
		return "forward"
	case TraceDrop:
		return "drop"
	default:
		return fmt.Sprintf("point-%d", uint8(p))
	}
}

// PacketTrace describes one packet observation at one trace point. It is
// all value fields — no slices — so hooks may retain it freely; the packet
// buffers themselves are never exposed.
type PacketTrace struct {
	Point   TracePoint
	Src     wire.Addr
	Dst     wire.Addr // set on TraceForward; zero elsewhere
	Service wire.ServiceID
	Conn    wire.ConnectionID
	Bytes   int // payload length
}

// TraceHook receives per-packet trace events from the pipe-terminus. Hooks
// run inline on the data path (possibly concurrently from several rx
// workers), so they must be fast, non-blocking, and allocation-conscious;
// a hook that needs to do real work should sample or hand off through a
// lossy channel. A nil hook costs one predictable branch per trace point.
type TraceHook func(ev PacketTrace)
