// Package sn implements the InterEdge service node (§3): the pipe-terminus
// fast path with its decision cache, the slow path of service modules
// running in the common execution environment, and the supporting
// primitives (configuration, checkpointing, logging) that make service
// modules Write-Once-Run-Anywhere.
package sn

import (
	"bytes"
	"crypto/ed25519"
	"net/netip"
	"sync"
	"time"

	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Packet is one inbound ILP packet as seen by a service module: the L3
// source plus the decrypted ILP header and opaque payload (§4: the module
// receives "the packet's L3 header and decrypted ILP header").
//
// A packet is on lease to the module for the length of HandlePacket.
// Payload and Hdr.Data lie in the buffer the packet arrived in, which the
// pipe opened in place, and once the module's verdict (or the error, or the
// degraded action) has been applied, the SN gives that buffer back for the
// next inbound datagram and the Packet itself back to a pool. A module that
// keeps the packet, or any slice of Hdr.Data or Payload, past HandlePacket —
// in its state, on another goroutine, or in an Env.Inject — calls Retain
// first, or copies what it keeps. The SN keeps nothing of a packet once its
// verdict is applied: Route and OneForward verdicts and the rewrite a module
// writes into RewriteBuf live in the packet, the cache copies next hops and
// rewrites, and every forward is sealed or snapshotted before the SN moves
// on.
type Packet struct {
	Src     wire.Addr
	Hdr     wire.ILPHeader
	Payload []byte

	// The commonest verdicts, held in the packet so that they cost no
	// allocation (OneForward, Route).
	fwd  [1]Forward
	rule [1]Rule
	next [1]wire.Addr
	// rewrite holds what RewriteBuf hands out: room for the commonest
	// rewrite, an inter-edomain transit header around a short inner one.
	rewrite [128]byte

	// rxBuf is the receive buffer Hdr.Data and Payload lie in, given back
	// when the lease ends; nil for a packet that came from Inject, whose
	// bytes the SN does not recycle.
	rxBuf []byte
	// retained is set by Retain: the packet and its buffer are the
	// module's from then on, and the collector's once it lets go.
	retained bool
}

// Retain keeps p, and the buffer its Hdr.Data and Payload lie in, from being
// recycled when HandlePacket returns. It is for a module that holds on to
// the packet or to any slice of its bytes; copying what it keeps is the
// alternative. Under the IPC transport and in an enclave the module is
// handed a decoded copy, which is never recycled, so Retain changes nothing
// there.
func (p *Packet) Retain() { p.retained = true }

// packets holds the slow path's recycled Packets. A sync.Pool, not a free
// list: the collector empties it, so an idle SN keeps none.
var packets = sync.Pool{New: func() any { return new(Packet) }}

// leasePacket takes a packet from the pool for one miss; rxBuf is the
// receive buffer its bytes lie in, or nil.
func leasePacket(src wire.Addr, hdr wire.ILPHeader, payload, rxBuf []byte) *Packet {
	p := packets.Get().(*Packet)
	*p = Packet{Src: src, Hdr: hdr, Payload: payload, rxBuf: rxBuf}
	return p
}

// recycle ends p's lease: unless a module retained it, its receive buffer
// goes back to the transport's pool (wire.RxRelease) and p to the packet
// pool, cleared — overwritten with garbage in race builds, as a released
// buffer is, so a reference that outlived the lease reads nonsense at once.
// It reports whether a receive buffer went back.
func (p *Packet) recycle() bool {
	if p.retained {
		return false
	}
	released := p.rxBuf != nil
	wire.RxRelease(p.rxBuf)
	if raceEnabled {
		*p = recycledPacket
	} else {
		*p = Packet{}
	}
	packets.Put(p)
	return released
}

// recycledPacket is what a recycled packet reads in race builds.
var recycledPacket = Packet{
	Src:     netip.AddrFrom16([16]byte(bytes.Repeat([]byte{0xDB}, 16))),
	Hdr:     wire.ILPHeader{Service: 0xDBDBDBDB, Conn: 0xDBDBDBDBDBDBDBDB, Data: bytes.Repeat([]byte{0xDB}, 16)},
	Payload: bytes.Repeat([]byte{0xDB}, 64),
	rewrite: [128]byte(bytes.Repeat([]byte{0xDB}, 128)),
}

// RewriteBuf returns n bytes for a module to encode its verdict's header
// rewrite into (Route, Forward.RewriteHeader): bytes the packet holds, so
// the rewrite costs no allocation, or — beyond the room the packet has — a
// fresh slice. A packet holds room for one rewrite: each call hands out
// the same bytes. Like the verdict, they are only good for p: the SN copies
// what it keeps of them (the cache's rule, a requeued forward) before the
// packet is recycled.
func (p *Packet) RewriteBuf(n int) []byte {
	if n <= len(p.rewrite) {
		return p.rewrite[:n:n]
	}
	return make([]byte, n)
}

// OneForward returns the Forwards of the commonest uncached verdict — one
// copy to one next hop — held in the packet itself, so the verdict costs no
// allocation. The slice is only good for the Decision returned for p.
func (p *Packet) OneForward(f Forward) []Forward {
	p.fwd[0] = f
	return p.fwd[:]
}

// Route returns the commonest verdict: send p to next and cache that for
// p's flow. A non-nil rewrite is the encoded header that replaces p's on
// this copy and on the flow's later ones, best written into p.RewriteBuf;
// the cache copies it, and it must not be written until the verdict has
// been applied. A valid dependsOn is the address the decision was
// resolved for and does not forward to (cache.Action.DependsOn). The
// verdict is held in the packet itself, so it costs no allocation; it is
// only good for p.
func (p *Packet) Route(next wire.Addr, rewrite []byte, dependsOn wire.Addr) Decision {
	p.next[0] = next
	p.rule[0] = Rule{Key: p.Key(), Action: cache.Action{Forward: p.next[:], RewriteHeader: rewrite, DependsOn: dependsOn}}
	return Decision{Forwards: p.OneForward(Forward{Dst: next, RewriteHeader: rewrite}), Rules: p.rule[:]}
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
	// RewriteHeader, if non-nil, is an encoded ILP header that replaces the
	// packet's on this copy, as cache.Action.RewriteHeader does on a cached
	// flow's; it takes precedence over Hdr, may lie in the packet's
	// RewriteBuf, and must not be written after the verdict is returned.
	RewriteHeader []byte
	// Payload, if non-nil, replaces the packet's payload on this copy;
	// nil forwards the original payload, and an empty non-nil slice
	// ([]byte{}) sends none.
	Payload []byte
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
	// HandlePacket processes one packet on the slow path. pkt is the
	// module's until the call returns: to keep it, or any slice of
	// pkt.Hdr.Data or pkt.Payload, beyond that, call pkt.Retain or copy
	// (see Packet).
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
	// to call from any goroutine. Inject takes ownership of what it is
	// given, as the terminus does of a received packet: the caller must
	// not write hdr.Data or payload afterwards. Bytes taken from a packet
	// the module was handed are the terminus's to inject only if the
	// module retained that packet (Packet.Retain) or copied them.
	Inject(src wire.Addr, hdr wire.ILPHeader, payload []byte)
	// Connect ensures a pipe to dst exists.
	Connect(dst wire.Addr) error
	// PeerIdentity returns the verified identity of an established pipe
	// peer (hosts prove their identity during the pipe handshake, so
	// services can validate signed join messages against it, §6.2).
	PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool)

	// AddRule installs a decision-cache entry. The cache copies
	// action.Forward and action.RewriteHeader and keeps none of the
	// caller's slices; a lookup that hits pins the cache's copy of the
	// rewrite until it releases it (cache.Action.Release).
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
