// Package ipfwd implements the "IP-like service" the paper uses as its
// canonical bundle component (§3.2: "naturally composable services can be
// combined into 'bundles' (e.g., an IP-like service and a caching
// service)"): point-to-point delivery of packets to a destination host
// through the destination's first-hop SN, across edomains when necessary.
//
// The ILP header data carries the destination host address. The module
// resolves the destination's SN through the global lookup service and
// installs a decision-cache rule so subsequent packets of the flow ride the
// fast path: deliver to the host when it is attached here; forward to its SN
// when that is in this edomain; otherwise forward under a transit header
// (peering.TransitDecision) toward it, which the rule applies as a header
// rewrite. The two first-hop rules depend on the destination host's address,
// so a republished record re-decides the flow.
package ipfwd

import (
	"fmt"

	"interedge/internal/lookup"
	"interedge/internal/lookup/rescache"
	"interedge/internal/peering"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// AsyncResolver is a resolver that can answer from cache and fill
// asynchronously — *rescache.Cache. When the module's resolver
// implements it, a cold resolution parks the packet and re-injects it
// when the fill completes instead of blocking the slow-path dispatcher
// on the directory.
type AsyncResolver interface {
	rescache.Resolver
	ResolveCached(addr wire.Addr) (lookup.AddrRecord, bool, bool)
	ResolveAsync(addr wire.Addr, cb func(lookup.AddrRecord, error)) bool
}

// Module is the IP-like forwarding service.
type Module struct {
	resolver rescache.Resolver
	async    AsyncResolver // non-nil when resolver supports cached/async reads
	fabric   *peering.Fabric
}

// New creates the forwarding module. resolver is typically the SN-tier
// *rescache.Cache (enabling the non-blocking miss path) or the global
// *lookup.Service directly. fabric may be nil for single-edomain
// deployments.
func New(resolver rescache.Resolver, fabric *peering.Fabric) *Module {
	m := &Module{resolver: resolver, fabric: fabric}
	if a, ok := resolver.(AsyncResolver); ok {
		m.async = a
	}
	return m
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcIPFwd }

// Name implements sn.Module.
func (*Module) Name() string { return "ipfwd" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// DestData encodes a destination host address as ipfwd header data.
func DestData(dst wire.Addr) []byte {
	b := dst.As16()
	return b[:]
}

// DecodeDest parses ipfwd header data.
func DecodeDest(data []byte) (wire.Addr, error) {
	if len(data) != 16 {
		return wire.Addr{}, fmt.Errorf("ipfwd: header data must be 16 bytes, got %d", len(data))
	}
	var b [16]byte
	copy(b[:], data)
	return addrFrom16(b), nil
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	dst, err := DecodeDest(pkt.Hdr.Data)
	if err != nil {
		return sn.Decision{}, err
	}
	local := env.LocalAddr()

	// Destination directly attached here? (Its lookup record lists this SN.)
	var rec lookup.AddrRecord
	if m.async != nil {
		var cached, negative bool
		rec, cached, negative = m.async.ResolveCached(dst)
		if negative {
			return sn.Decision{}, fmt.Errorf("ipfwd: resolve %s: %w", dst, lookup.ErrUnknownAddress)
		}
		if !cached {
			return m.fillAndRequeue(env, pkt, dst)
		}
	} else {
		var err error
		rec, err = m.resolver.ResolveAddress(dst)
		if err != nil {
			return sn.Decision{}, fmt.Errorf("ipfwd: resolve %s: %w", dst, err)
		}
	}
	for _, snAddr := range rec.SNs {
		if snAddr == local {
			// Last hop: deliver to the host and cache the decision.
			return sn.Decision{
				Forwards: pkt.OneForward(sn.Forward{Dst: dst}),
				Rules: []sn.Rule{{
					Key:    pkt.Key(),
					Action: cache.Action{Forward: []wire.Addr{dst}},
				}},
			}, nil
		}
	}
	if len(rec.SNs) == 0 {
		return sn.Decision{}, fmt.Errorf("ipfwd: destination %s has no SNs", dst)
	}
	dstSN := rec.SNs[0]

	// Same edomain (or no fabric): hand to the destination's SN directly.
	sameEdomain := true
	if m.fabric != nil {
		edHere, ok1 := m.fabric.EdomainOf(local)
		edThere, ok2 := m.fabric.EdomainOf(dstSN)
		if ok1 && ok2 && edHere != edThere {
			sameEdomain = false
		}
	}
	if sameEdomain {
		return sn.Decision{
			Forwards: pkt.OneForward(sn.Forward{Dst: dstSN}),
			Rules: []sn.Rule{{
				Key:    pkt.Key(),
				Action: cache.Action{Forward: []wire.Addr{dstSN}, DependsOn: dst},
			}},
		}, nil
	}

	// Cross-edomain: transit toward the destination SN. The inner packet
	// keeps the original ipfwd header so the destination SN completes
	// last-hop delivery.
	d, err := peering.TransitDecision(m.fabric, local, dstSN, pkt, &pkt.Hdr)
	if err != nil {
		return sn.Decision{}, fmt.Errorf("ipfwd: transit: %w", err)
	}
	d.Rules[0].Action.DependsOn = dst
	return d, nil
}

// fillAndRequeue is the non-blocking cold-resolution path: park a copy
// of the packet on an asynchronous cache fill and re-inject it into the
// pipe-terminus when the record arrives. The slow-path dispatcher
// returns immediately; a directory that is slow (or a destination that
// does not exist) never stalls packets behind this one. A re-injected
// packet re-enters this module and either decides from the now-warm
// cache or surfaces the negative-cache error.
func (m *Module) fillAndRequeue(env sn.Env, pkt *sn.Packet, dst wire.Addr) (sn.Decision, error) {
	src := pkt.Src
	hdr := pkt.Hdr
	hdr.Data = append([]byte(nil), pkt.Hdr.Data...)
	payload := append([]byte(nil), pkt.Payload...)
	if !m.async.ResolveAsync(dst, func(lookup.AddrRecord, error) {
		env.Inject(src, hdr, payload)
	}) {
		return sn.Decision{}, fmt.Errorf("ipfwd: resolution fill queue full for %s", dst)
	}
	return sn.Decision{}, nil
}
