package lab

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/edomain"
	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// FleetConfig sizes a weightless host fleet: one edomain of SNs whose
// hosts are all engine-backed lite hosts sharing a single pipe.Engine and
// a single netsim.Mux. The goroutine count of the finished fleet is
// O(SNs + engine workers + placement controller), independent of Hosts.
type FleetConfig struct {
	// SNs and Hosts size the fleet. Both required.
	SNs   int
	Hosts int
	// HostConfig edits host i's config before creation — the load
	// generator installs its FastHandler here.
	HostConfig func(i int, cfg *host.Config)
	// RegisterSN installs each service node's modules. Required: the lab
	// package cannot import service modules (their tests import lab), so
	// the caller supplies the registration — typically ipfwd over
	// t.NewNodeResolver(ed, node). It runs once per SN, after the whole
	// adoption wave (see NewFleet).
	RegisterSN func(t *Topology, ed *Edomain, node *sn.SN) error
}

// The fleet's fixed shape.
const (
	// fleetID names the fleet's edomain.
	fleetID edomain.ID = "fleet"
	// fleetMuxQueueDepth is the shared host-side receive depth, split
	// across the engine's RX workers: one receive side absorbs bursts for
	// the entire fleet.
	fleetMuxQueueDepth = 65536
	// fleetHandshakeTimeout and fleetHandshakeRetries tune the engine's
	// dialer: adoption storms share SN slow-path capacity.
	fleetHandshakeTimeout = 2 * time.Second
	fleetHandshakeRetries = 8
)

// Fleet is a built weightless fleet: the edomain and its placement
// controller, the shared engine/mux pair with the registry holding the
// engine's instruments, and every lite host in index order (host i's load
// partner convention is up to the driver).
type Fleet struct {
	Topo      *Topology
	Ed        *Edomain
	Place     *Placement
	Engine    *pipe.Engine
	Mux       *netsim.Mux
	EngineReg *telemetry.Registry
	Hosts     []*host.Host
}

// NewFleet stands up a weightless host fleet inside the topology: an
// edomain of cfg.SNs meshed service nodes running whatever modules
// cfg.RegisterSN installs, plus cfg.Hosts engine-backed lite hosts,
// each adopted under ring placement with a real handshake to its ring
// owner and a published lookup record.
//
// Build order matters for scale: SN-tier resolution caches watch the
// global lookup service, so they are registered after the adoption wave —
// otherwise every one of the Hosts publishes fans out to every SN's
// cache during the build. Hosts are built by a bounded worker pool;
// everything each worker touches (allocator-reserved address, mux port
// table, engine endpoint table, fabric, placement, lookup service) is
// safe for concurrent use.
//
// The fleet tears down with the topology: one closer shuts the shared
// engine (and through it the mux); per-host Close is never used, which
// keeps teardown O(SNs + endpoints) instead of O(Hosts * pipes).
func (t *Topology) NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.SNs < 1 || cfg.Hosts < 1 {
		return nil, fmt.Errorf("lab: fleet needs SNs >= 1 and Hosts >= 1 (got %d, %d)", cfg.SNs, cfg.Hosts)
	}
	if cfg.RegisterSN == nil {
		return nil, fmt.Errorf("lab: FleetConfig.RegisterSN is required")
	}
	ed, err := t.AddEdomain(fleetID, cfg.SNs, nil)
	if err != nil {
		return nil, err
	}
	if err := t.Mesh(); err != nil {
		return nil, fmt.Errorf("lab: fleet mesh: %w", err)
	}
	place := t.NewPlacement(ed)

	mux := t.Net.NewMux(fleetMuxQueueDepth)
	engReg := telemetry.NewRegistry()
	eng, err := pipe.NewEngine(pipe.EngineConfig{
		Transport:        mux,
		Clock:            t.Clock,
		HandshakeTimeout: fleetHandshakeTimeout,
		HandshakeRetries: fleetHandshakeRetries,
		// The floor of 4 matters: the engine's workers are the only
		// consumers of the fleet's one shared receive side, and under Go's
		// fair scheduling a single worker competing with hundreds of SN
		// worker goroutines is starved into queue overflow.
		RxWorkers: max(4, runtime.GOMAXPROCS(0)),
		Telemetry: engReg,
	})
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, eng.Close)

	f := &Fleet{
		Topo:      t,
		Ed:        ed,
		Place:     place,
		Engine:    eng,
		Mux:       mux,
		EngineReg: engReg,
		Hosts:     make([]*host.Host, cfg.Hosts),
	}

	// Reserve every address up front: the allocator is not safe for
	// concurrent use, and deterministic addresses keep placement stable
	// run to run.
	addrs := make([]wire.Addr, cfg.Hosts)
	for i := range addrs {
		addrs[i] = t.alloc.Next()
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		buildErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { buildErr = err })
		failed.Store(true)
	}
	next := atomic.Int64{}
	// A bounded pool builds the hosts: each adoption performs a real
	// handshake.
	workers := min(64, 4*runtime.GOMAXPROCS(0), cfg.Hosts)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Hosts || failed.Load() {
					return
				}
				h, err := f.buildHost(cfg, i, addrs[i])
				if err != nil {
					fail(fmt.Errorf("lab: fleet host %d: %w", i, err))
					return
				}
				f.Hosts[i] = h
			}
		}()
	}
	wg.Wait()
	if buildErr != nil {
		return nil, buildErr
	}

	// SN modules last: node resolvers watch the global service, so
	// registering them after the adoption wave keeps the build free of
	// Hosts x SNs watch fan-out.
	for _, node := range ed.SNs {
		if err := cfg.RegisterSN(t, ed, node); err != nil {
			return nil, fmt.Errorf("lab: fleet module on %s: %w", node.Addr(), err)
		}
	}
	return f, nil
}

// buildHost creates, registers, and adopts one lite host.
func (f *Fleet) buildHost(cfg FleetConfig, i int, addr wire.Addr) (*host.Host, error) {
	if err := f.Mux.AddPort(addr); err != nil {
		return nil, err
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		return nil, err
	}
	hc := host.Config{Addr: addr, Identity: id, Clock: f.Topo.Clock}
	if cfg.HostConfig != nil {
		cfg.HostConfig(i, &hc)
	}
	h, err := host.NewOnEngine(f.Engine, hc)
	if err != nil {
		return nil, err
	}
	if err := f.Topo.Fabric.RegisterAddr(f.Ed.ID, addr); err != nil {
		return nil, err
	}
	if _, err := f.Place.AdoptHost(h); err != nil {
		return nil, err
	}
	return h, nil
}
