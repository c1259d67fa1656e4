// Package sn implements the InterEdge service node (§3): the pipe-terminus
// fast path with its decision cache, the slow path of service modules
// running in the common execution environment, and the supporting
// primitives (configuration, checkpointing, logging) that make service
// modules Write-Once-Run-Anywhere.
package sn

import (
	"crypto/ed25519"
	"time"

	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Packet is one inbound ILP packet as seen by a service module: the L3
// source plus the decrypted ILP header and opaque payload (§4: the module
// receives "the packet's L3 header and decrypted ILP header").
//
// Payload belongs to the packet: the transport handed the datagram over for
// keeps and the pipe decrypted it in place, so whoever holds the packet may
// retain Payload. The SN gives a receive buffer back for reuse only when no
// Packet was ever made of it (a cache hit that delivers to no one), so what
// a module or OnDeliver sees is never recycled under it. Hdr.Data is the
// runtime's copy, the module's to keep too.
type Packet struct {
	Src     wire.Addr
	Hdr     wire.ILPHeader
	Payload []byte

	fwd [1]Forward // backs OneForward
}

// OneForward returns the Forwards of the commonest verdict — one copy to
// one next hop — held in the packet itself, so the verdict costs no
// allocation. The slice is only good for the Decision returned for p.
func (p *Packet) OneForward(f Forward) []Forward {
	p.fwd[0] = f
	return p.fwd[:]
}

// Key returns the packet's decision-cache key.
func (p *Packet) Key() wire.FlowKey {
	return wire.FlowKey{Src: p.Src, Service: p.Hdr.Service, Conn: p.Hdr.Conn}
}

// Forward is one forwarding instruction in a Decision.
type Forward struct {
	// Dst is the next hop (an SN or host pipe peer).
	Dst wire.Addr
	// Hdr, if non-nil, replaces the packet's ILP header on this copy;
	// nil forwards the original header unchanged.
	Hdr *wire.ILPHeader
	// Payload, if non-nil, replaces the packet's payload on this copy;
	// nil forwards the original payload. Use Empty to send no payload.
	Payload []byte
	// Empty forces an empty payload even though Payload is nil.
	Empty bool
}

// Rule is a decision-cache installation request.
type Rule struct {
	Key    wire.FlowKey
	Action cache.Action
}

// Decision is a service module's verdict on one packet: where copies go,
// and which cache rules to install or remove ("Either the decision cache
// or the service provides the pipe-terminus with a (possibly empty) list
// of forwarding destinations", §4).
type Decision struct {
	Forwards   []Forward
	Rules      []Rule
	Invalidate []wire.FlowKey
}

// Module is a standardized InterEdge service module. Modules are written
// against Env — the common execution environment — and must not reach
// around it, which is what makes them deployable on any SN (§3.1 WORA).
type Module interface {
	// Service returns the module's standardized service ID.
	Service() wire.ServiceID
	// Name returns the module's human-readable name.
	Name() string
	// Version returns the implementation version (part of the enclave
	// measurement).
	Version() string
	// HandlePacket processes one packet on the slow path. The module may
	// retain pkt.Hdr.Data and pkt.Payload (see Packet).
	HandlePacket(env Env, pkt *Packet) (Decision, error)
}

// Starter is implemented by modules needing startup work (e.g. restoring
// checkpoints, starting timers) when registered on an SN.
type Starter interface {
	Start(env Env) error
}

// Stopper is implemented by modules needing teardown on SN close.
type Stopper interface {
	Stop() error
}

// Env is the InterEdge-provided API available to service modules: the
// "few basic primitives (such as sending and receiving packets over ILP,
// reading and updating configuration, and checkpointing state for fault
// tolerance)" of §3.1, plus the decision-cache API of Appendix B.
type Env interface {
	// LocalAddr returns this SN's address.
	LocalAddr() wire.Addr
	// Now returns the current time from the SN's clock.
	Now() time.Time
	// After schedules a timer on the SN's clock.
	After(d time.Duration) <-chan time.Time

	// Send transmits an ILP packet to dst over an established pipe,
	// establishing one first if needed.
	Send(dst wire.Addr, hdr *wire.ILPHeader, payload []byte) error
	// Inject re-enters a packet into the pipe-terminus as if it had
	// just arrived from src — the asynchronous-requeue primitive: a
	// module that parked a packet pending slow external work (e.g. a
	// cold resolution fill) re-injects it once the result is in. Safe
	// to call from any goroutine; hdr and payload must not alias
	// runtime buffers the caller does not own.
	Inject(src wire.Addr, hdr wire.ILPHeader, payload []byte)
	// Connect ensures a pipe to dst exists.
	Connect(dst wire.Addr) error
	// PeerIdentity returns the verified identity of an established pipe
	// peer (hosts prove their identity during the pipe handshake, so
	// services can validate signed join messages against it, §6.2).
	PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool)

	// AddRule installs a decision-cache entry. action.Forward is immutable
	// from here on (the cache indexes the rule by next hop and keeps the
	// slice): to change a rule's next hops, AddRule a new action with a
	// new slice.
	AddRule(key wire.FlowKey, action cache.Action)
	// InvalidateRule removes a decision-cache entry.
	InvalidateRule(key wire.FlowKey)
	// RuleHitCount returns an entry's hit counter (Appendix B.2).
	RuleHitCount(key wire.FlowKey) (uint64, bool)
	// RuleRecentlyUsed reports whether an entry was hit within window.
	RuleRecentlyUsed(key wire.FlowKey, window time.Duration) bool

	// Config reads a key from the module's configuration namespace.
	Config(key string) ([]byte, bool)
	// SetConfig updates a key in the module's configuration namespace.
	SetConfig(key string, value []byte)

	// Checkpoint durably stores module state for fault tolerance.
	Checkpoint(key string, data []byte)
	// Restore retrieves checkpointed state.
	Restore(key string) ([]byte, bool)

	// Logf emits a log line tagged with the SN and module.
	Logf(format string, args ...any)
}
