package sn

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/enclave"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/tpm"
	"interedge/internal/wire"
)

// Config configures a service node.
type Config struct {
	// Transport attaches the SN to the substrate. Required.
	Transport netsim.Transport
	// Identity is the SN's signing identity. Required.
	Identity handshake.Identity
	// Clock defaults to the real clock.
	Clock clock.Clock
	// CacheSize is the decision-cache capacity (default 65536 entries):
	// a bound, not an allocation; the cache's memory follows the rules
	// installed.
	CacheSize int
	// TPM is the node's TPM; created automatically when nil.
	TPM *tpm.TPM
	// Authorize filters pipe peers (default accept-all).
	Authorize pipe.AuthorizePeer
	// AutoConnect, when true (the default via NewConfig semantics: zero
	// value false means *disabled*; most callers want DisableAutoConnect
	// false), lets forwarding establish missing pipes on demand.
	DisableAutoConnect bool
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// EnclaveTerminus runs the pipe-terminus inside a simulated secure
	// enclave: every packet crosses the enclave boundary on entry. This
	// reproduces Appendix C's no-service-with-enclave configuration.
	EnclaveTerminus bool
	// RxWorkers is the number of parallel pipe-terminus workers inbound
	// datagrams are sharded onto by source address (default GOMAXPROCS;
	// see pipe.Config.RxWorkers).
	RxWorkers int
	// HandshakeTimeout/Retries tune pipe establishment (see pipe.Config).
	HandshakeTimeout time.Duration
	HandshakeRetries int
	// KeepaliveInterval enables pipe liveness probes with dead-peer
	// detection (see pipe.Config.KeepaliveInterval); 0 disables them.
	// When a peer dies, every decision-cache entry sourced from it or
	// forwarding to it is invalidated, and (unless DisableAutoConnect)
	// the pipe is re-established automatically with a fresh key epoch.
	KeepaliveInterval time.Duration
	// DeadAfter is the idle window before a peer is declared dead
	// (default 4×KeepaliveInterval).
	DeadAfter time.Duration
	// OnPeerDown is notified after dead-peer cache invalidation. Optional.
	OnPeerDown pipe.PeerDownHandler
	// AcceptHandoff authorizes inbound pipe handoffs (SvcHandoff): only
	// state arriving from an src it approves — in practice, a sibling SN of
	// the same edomain — is imported. Nil rejects all handoffs, so a node
	// never accepts migrated key material unless explicitly configured to.
	AcceptHandoff func(src wire.Addr) bool
	// RequeueDepth bounds the per-destination queue of forwarded packets
	// held while a pipe (re-)establishes instead of dropping them
	// (default 1024).
	RequeueDepth int
	// Telemetry homes every layer's instruments (SN, pipe, cache, module
	// dispatchers, and the transport if it implements
	// telemetry.Registrable) in an existing registry; nil creates a
	// per-node one, reachable via SN.Telemetry().
	Telemetry *telemetry.Registry
	// Trace, when non-nil, observes every packet crossing the
	// pipe-terminus (rx, fast/slow path, forward, drop). It runs
	// inline on the sharded rx workers; see telemetry.TraceHook for the
	// contract.
	Trace telemetry.TraceHook
}

// moduleTable maps a service to its registered module; see SN.modules.
type moduleTable map[wire.ServiceID]*registeredModule

type registeredModule struct {
	mod      Module
	cfg      moduleConfig
	disp     *dispatcher
	env      *snEnv
	enclave  *enclave.Enclave
	ops      []*ControlOp // its control ops, health first
	stopOnce sync.Once
	// notePanic counts and logs a contained module panic.
	notePanic func(v any)
}

// health snapshots the module's containment state.
func (reg *registeredModule) health() ModuleHealth {
	d := reg.disp
	state, consec, trips, recoveries := d.brk.snapshot()
	return ModuleHealth{
		Service:             reg.mod.Service(),
		Name:                reg.mod.Name(),
		Transport:           reg.cfg.transport.String(),
		State:               state.String(),
		ConsecutiveFailures: consec,
		Handled:             d.handled.Load(),
		Dropped:             d.dropped.Load(),
		Errored:             d.errored.Load(),
		Timeouts:            d.timeouts.Load(),
		Panics:              d.panics.Load(),
		Restarts:            d.restarts.Load(),
		BreakerTrips:        trips,
		BreakerRecoveries:   recoveries,
		Shed:                d.shed.Load(),
	}
}

// SN is one InterEdge service node.
type SN struct {
	cfg             Config
	mgr             *pipe.Manager
	cache           *cache.Cache
	tpm             *tpm.TPM
	terminusEnclave *enclave.Enclave

	// modules is the module table the packet path reads: published
	// copy-on-write, replaced under mu by Register (it changes nowhere
	// else), so a miss finds its module without taking the SN-wide lock.
	modules atomic.Pointer[moduleTable]
	// controls is the control-protocol dispatch table: the SN's own ops and
	// every registered module's, published copy-on-write like modules.
	controls       atomic.Pointer[controlTable]
	controlDropped *telemetry.Counter // control packets that were no request
	controlUnknown *telemetry.Counter // requests naming no registered op

	mu          sync.Mutex
	configStore map[string][]byte
	checkpoints map[string][]byte
	// pendingSends holds forwards awaiting a pipe, per destination;
	// dialing marks destinations with an establish-and-flush goroutine.
	pendingSends map[wire.Addr][]queuedSend
	dialing      map[wire.Addr]bool
	closed       bool

	// The data-path counters are telemetry instruments in telem, read
	// through Telemetry().Snapshot().
	telem         *telemetry.Registry
	trace         telemetry.TraceHook
	rxPackets     *telemetry.Counter
	fastPathHits  *telemetry.Counter
	slowPathSent  *telemetry.Counter
	noModuleDrops *telemetry.Counter
	ruleDrops     *telemetry.Counter
	forwarded     *telemetry.Counter
	forwardErrors *telemetry.Counter
	moduleErrors  *telemetry.Counter
	requeued      *telemetry.Counter
	requeueDrops  *telemetry.Counter
	peersLost     *telemetry.Counter
	fastPathNs    *telemetry.Histogram
	// Receive buffers handleBatch gave back after serving their packets
	// entirely from the decision cache, or dropping them as malformed
	// transit.
	rxBuffersReleased *telemetry.Counter
	// Transit packets (SvcPeering) addressed to this SN: unwrapped in the
	// pipe-terminus, or dropped there as malformed.
	transitUnwrapped *telemetry.Counter
	transitMalformed *telemetry.Counter

	// Drain/handoff/failover instruments (see drain.go).
	drainStarted   *telemetry.Counter
	drainCompleted *telemetry.Counter
	drainAborted   *telemetry.Counter
	handoffPipes   *telemetry.Counter
	failovers      *telemetry.Counter
	drainNs        *telemetry.Histogram
}

// queuedSend is one forward held back while its destination pipe
// (re-)establishes.
type queuedSend struct {
	hdr     []byte
	payload []byte
}

// New creates and starts a service node.
func New(cfg Config) (*SN, error) {
	if cfg.Transport == nil {
		return nil, errors.New("sn: Config.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 65536
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.TPM == nil {
		t, err := tpm.New()
		if err != nil {
			return nil, err
		}
		cfg.TPM = t
	}
	if cfg.RequeueDepth == 0 {
		cfg.RequeueDepth = 1024
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// The decision cache is sharded source-affine with exactly one shard per
	// pipe rx worker (mirroring pipe.New's worker-count defaulting): the
	// transport queues a source's datagrams on worker wire.RxShard(src, SN)
	// and the cache stripes by the same function, so the worker handling a
	// source is the only one touching that source's shard and fast-path
	// lookups never contend across workers.
	workers := cfg.RxWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	s := &SN{
		cfg:          cfg,
		cache:        cache.NewSourceAffine(cfg.CacheSize, workers, cfg.Transport.LocalAddr()),
		tpm:          cfg.TPM,
		configStore:  make(map[string][]byte),
		checkpoints:  make(map[string][]byte),
		pendingSends: make(map[wire.Addr][]queuedSend),
		dialing:      make(map[wire.Addr]bool),

		telem:         reg,
		trace:         cfg.Trace,
		rxPackets:     reg.Counter("sn_rx_packets_total"),
		fastPathHits:  reg.Counter("sn_fastpath_hits_total"),
		slowPathSent:  reg.Counter("sn_slowpath_sent_total"),
		noModuleDrops: reg.Counter("sn_no_module_drops_total"),
		ruleDrops:     reg.Counter("sn_rule_drops_total"),
		forwarded:     reg.Counter("sn_forwarded_total"),
		forwardErrors: reg.Counter("sn_forward_errors_total"),
		moduleErrors:  reg.Counter("sn_module_errors_total"),
		requeued:      reg.Counter("sn_requeued_total"),
		requeueDrops:  reg.Counter("sn_requeue_drops_total"),
		peersLost:     reg.Counter("sn_peers_lost_total"),
		fastPathNs:    reg.Histogram("sn_fastpath_service_ns", telemetry.LatencyBuckets),

		rxBuffersReleased: reg.Counter("sn_rx_buffers_released_total"),

		transitUnwrapped: reg.Counter("sn_transit_unwrapped_total"),
		transitMalformed: reg.Counter("sn_transit_malformed_total"),

		drainStarted:   reg.Counter("sn_drain_started_total"),
		drainCompleted: reg.Counter("sn_drain_completed_total"),
		drainAborted:   reg.Counter("sn_drain_aborted_total"),
		handoffPipes:   reg.Counter("sn_handoff_pipes_total"),
		failovers:      reg.Counter("sn_failovers_total"),
		drainNs:        reg.Histogram("sn_drain_duration_ns", telemetry.LatencyBuckets),
	}
	s.modules.Store(&moduleTable{})
	s.initControl()
	s.cache.RegisterTelemetry(reg)
	if rt, ok := cfg.Transport.(telemetry.Registrable); ok {
		rt.RegisterTelemetry(reg)
	}
	if cfg.EnclaveTerminus {
		encl, err := enclave.New("pipe-terminus", "1.0", cfg.TPM)
		if err != nil {
			return nil, err
		}
		s.terminusEnclave = encl
	}
	mgr, err := pipe.New(pipe.Config{
		Transport:         cfg.Transport,
		Telemetry:         reg,
		Identity:          cfg.Identity,
		Clock:             cfg.Clock,
		BatchHandler:      s.handleBatch,
		Authorize:         cfg.Authorize,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		HandshakeRetries:  cfg.HandshakeRetries,
		RxWorkers:         cfg.RxWorkers,
		KeepaliveInterval: cfg.KeepaliveInterval,
		DeadAfter:         cfg.DeadAfter,
		Reestablish:       cfg.KeepaliveInterval > 0 && !cfg.DisableAutoConnect,
		OnPeerDown:        s.onPeerDown,
	})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	return s, nil
}

// Addr returns the SN's address.
func (s *SN) Addr() wire.Addr { return s.mgr.LocalAddr() }

// Identity returns the SN's identity.
func (s *SN) Identity() handshake.Identity { return s.mgr.Identity() }

// Pipes exposes the pipe manager (used by the peering layer and tests).
func (s *SN) Pipes() *pipe.Manager { return s.mgr }

// Cache exposes the decision cache (used by benchmarks and tests).
func (s *SN) Cache() *cache.Cache { return s.cache }

// Telemetry returns the node registry: every layer's instruments (sn_*,
// pipe_*, cache_*, sn_module_*, transport_*) in one snapshot surface. The
// same registry answers the control-protocol "metrics" op.
func (s *SN) Telemetry() *telemetry.Registry { return s.telem }

// TPM returns the node's TPM.
func (s *SN) TPM() *tpm.TPM { return s.tpm }

// Connect ensures a pipe to addr.
func (s *SN) Connect(addr wire.Addr) error { return s.mgr.Connect(addr) }

// ModuleHealth returns the per-module containment snapshot, sorted by
// service ID for deterministic output.
func (s *SN) ModuleHealth() []ModuleHealth {
	mods := *s.modules.Load()
	hs := make([]ModuleHealth, 0, len(mods))
	for _, reg := range mods {
		hs = append(hs, reg.health())
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Service < hs[j].Service })
	return hs
}

// Counters is Telemetry().Snapshot(). It exists only for the benchmark's
// sn.inject failure message, which prints it; read counters through
// Telemetry.
func (s *SN) Counters() telemetry.Snapshot { return s.telem.Snapshot() }

// Register installs a service module on this SN. Modules must be
// registered before traffic for their service arrives; registration after
// Start is safe but packets received in between are dropped.
func (s *SN) Register(mod Module, opts ...ModuleOption) error {
	mc := moduleConfig{
		transport:   TransportChan,
		workers:     1,
		queueDepth:  256,
		restartBase: 25 * time.Millisecond,
		restartMax:  time.Second,
	}
	for _, o := range opts {
		o(&mc)
	}
	if mc.degraded == DegradedForward && !mc.degradedDst.IsValid() {
		return fmt.Errorf("sn: module %s: degraded forward needs a valid destination", mod.Name())
	}
	env := &snEnv{sn: s, module: mod.Name(), service: mod.Service()}

	var encl *enclave.Enclave
	if mc.enclave {
		var err error
		encl, err = enclave.New(mod.Name(), mod.Version(), s.tpm)
		if err != nil {
			return err
		}
	}
	h := newHandleFunc(mod, env, encl)

	reg := &registeredModule{mod: mod, cfg: mc, env: env, enclave: encl}
	// The containment callbacks reference reg.disp, which is assigned
	// below, before the module becomes reachable from the packet path.
	reg.notePanic = func(v any) {
		reg.disp.panics.Add(1)
		s.cfg.Logf("sn %s: module %s panicked (contained): %v", s.Addr(), mod.Name(), v)
	}
	ops, err := s.moduleControlOps(reg)
	if err != nil {
		return err
	}
	reg.ops = ops
	noteRestart := func() {
		reg.disp.restarts.Add(1)
		s.cfg.Logf("sn %s: module %s server restarted", s.Addr(), mod.Name())
	}

	var inv invoker
	switch mc.transport {
	case TransportChan, TransportDirect:
		inv = &directInvoker{h: recoverHandleFunc(h, reg.notePanic)}
	case TransportIPC:
		retry := pipe.NewBackoff(mc.restartBase, mc.restartMax, pipe.DeriveSeed([]byte(mod.Name())))
		ipcInv, err := newIPCInvoker(mod.Name(), h, s.cfg.Clock, retry, s.cfg.Logf, reg.notePanic, noteRestart)
		if err != nil {
			return err
		}
		inv = ipcInv
	default:
		return fmt.Errorf("sn: unknown transport %v", mc.transport)
	}

	var brk *breaker
	if mc.breakerThreshold > 0 {
		cooldown := mc.breakerCooldown
		if cooldown <= 0 {
			cooldown = time.Second
		}
		brk = newBreaker(mc.breakerThreshold, cooldown, s.cfg.Clock)
		b := brk
		_ = s.telem.Register(
			telemetry.NewGaugeFunc(telemetry.Name("sn_module_breaker_state", "module", mod.Name()), func() int64 {
				st, _, _, _ := b.snapshot()
				return int64(st)
			}),
			telemetry.NewCounterFunc(telemetry.Name("sn_module_breaker_trips_total", "module", mod.Name()), func() uint64 {
				_, _, trips, _ := b.snapshot()
				return trips
			}),
			telemetry.NewCounterFunc(telemetry.Name("sn_module_breaker_recoveries_total", "module", mod.Name()), func() uint64 {
				_, _, _, recov := b.snapshot()
				return recov
			}),
		)
	}
	reg.disp = newDispatcher(inv, dispatcherConfig{
		workers:  mc.workers,
		depth:    mc.queueDepth,
		clk:      s.cfg.Clock,
		deadline: mc.deadline,
		brk:      brk,
		module:   mod.Name(),
		telem:    s.telem,
		apply:    s.applyDecision,
		onError: func(pkt *Packet, err error) {
			s.moduleErrors.Add(1)
			s.cfg.Logf("sn %s: module %s error on %s: %v", s.Addr(), mod.Name(), pkt.Key(), err)
		},
		degrade: func(pkt *Packet) { s.degradePacket(reg, pkt) },
	})

	if !s.publishModule(mod.Service(), reg) {
		reg.disp.close()
		return fmt.Errorf("sn: service %s already registered", mod.Service())
	}
	if st, ok := mod.(Starter); ok {
		if err := st.Start(env); err != nil {
			s.publishModule(mod.Service(), nil)
			reg.disp.close()
			return fmt.Errorf("sn: start module %s: %w", mod.Name(), err)
		}
	}
	return nil
}

// publishModule replaces the module table with a copy in which svc maps to
// reg, or to nothing when reg is nil, and the control table with one in
// which svc serves reg's ops. It refuses (false) to replace one registered
// module by another.
func (s *SN) publishModule(svc wire.ServiceID, reg *registeredModule) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.modules.Load()
	if _, dup := old[svc]; dup && reg != nil {
		return false
	}
	next := maps.Clone(old)
	var ops []*ControlOp
	if reg != nil {
		next[svc] = reg
		ops = reg.ops
	} else {
		delete(next, svc)
	}
	s.modules.Store(&next)
	s.publishControls(svc, ops)
	return true
}

// module returns the registration serving svc, if any.
func (s *SN) module(svc wire.ServiceID) (*registeredModule, bool) {
	reg, ok := (*s.modules.Load())[svc]
	return reg, ok
}

// Module returns the registered module for a service, if any.
func (s *SN) Module(svc wire.ServiceID) (Module, bool) {
	reg, ok := s.module(svc)
	if !ok {
		return nil, false
	}
	return reg.mod, true
}

// ModuleEnclave returns the enclave hosting a service, if it runs in one.
func (s *SN) ModuleEnclave(svc wire.ServiceID) (*enclave.Enclave, bool) {
	reg, ok := s.module(svc)
	if !ok || reg.enclave == nil {
		return nil, false
	}
	return reg.enclave, true
}

// Inject runs a packet through the pipe-terminus as if it had arrived on a
// pipe from src (see Env.Inject): a run of one, whose forwards go out
// through the manager. It takes ownership of hdr.Data and payload, as the
// terminus does of a received packet, but the packet has no receive buffer,
// so they never go to the receive pool.
func (s *SN) Inject(src wire.Addr, hdr wire.ILPHeader, payload []byte) {
	raw, err := hdr.Encode()
	if err != nil {
		return
	}
	s.handleBatch(s.mgr, src, []pipe.RxPacket{{Hdr: hdr, HdrRaw: raw, Payload: payload}})
}

// handleBatch is the pipe-terminus (§4, Figure 2): one call per decrypted
// same-source run of a receive batch. Each packet is looked up in the
// decision cache and either executes the cached action (fast path) or goes
// to its service module (slow path). It runs concurrently on the pipe
// engine's sharded rx workers — one worker per source address — so per-flow
// order is preserved without any lock here. Consecutive packets of one flow
// share a single decision-cache lookup (LookupStamped accounts the whole
// run's hits in one shard visit), so a recvmmsg burst of a hot flow costs
// one cache round-trip instead of one per packet. tx is the worker's egress
// sender: fast-path forwards issued through it coalesce into vectored
// transport batches, so a cache-hit burst to one peer leaves as a single
// sendmmsg on the UDP substrate.
//
// A packet served entirely from the decision cache gives its receive buffer
// back (pipe.RxPacket.Release) once its action has run, so the next inbound
// datagram is copied into it: a packet crossing k SNs costs the fabric one
// allocation, not k+1. A miss carries its buffer on to the slow path, which
// gives it back once the packet's lease ends (Packet).
func (s *SN) handleBatch(tx pipe.Sender, src wire.Addr, pkts []pipe.RxPacket) {
	for i := 0; i < len(pkts); {
		unwrap := s.transitEndsHere(&pkts[i].Hdr)
		j := i + 1
		for !unwrap && j < len(pkts) && pkts[j].Hdr.Service == pkts[i].Hdr.Service && pkts[j].Hdr.Conn == pkts[i].Hdr.Conn && !s.transitEndsHere(&pkts[j].Hdr) {
			j++
		}
		run := pkts[i:j]
		i = j
		s.rxPackets.Add(uint64(len(run)))
		kept := 0
		for k := range run {
			if s.trace != nil {
				s.trace(telemetry.PacketTrace{Point: telemetry.TraceRx, Src: src, Service: run[k].Hdr.Service, Conn: run[k].Hdr.Conn, Bytes: len(run[k].Payload)})
			}
			if s.terminusEnclave != nil {
				// The payload crosses into (and back out of) enclave memory
				// before terminus processing — the Appendix C enclave
				// configuration. A packet that fails to cross is dropped.
				crossed, err := s.terminusEnclave.Run(run[k].Payload, func(in []byte) ([]byte, error) { return in, nil })
				if err != nil {
					if s.trace != nil {
						s.trace(telemetry.PacketTrace{Point: telemetry.TraceDrop, Src: src, Service: run[k].Hdr.Service, Conn: run[k].Hdr.Conn, Bytes: len(run[k].Payload)})
					}
					s.release(run[k : k+1])
					continue
				}
				run[k].Payload = crossed
			}
			run[kept] = run[k]
			kept++
		}
		if run = run[:kept]; kept == 0 {
			continue
		}
		from := src
		if unwrap {
			orig, ok := s.unwrapTransit(src, &run[0])
			if !ok {
				s.release(run)
				continue
			}
			from = orig
		}
		key := wire.FlowKey{Src: from, Service: run[0].Hdr.Service, Conn: run[0].Hdr.Conn}
		if action, start, ok := s.cache.LookupStamped(key, uint64(len(run))); ok {
			// One histogram observation covers serving the whole run: the
			// post-lookup cost of executing the cached action, including any
			// coalesced egress enqueue. The interval starts at the reading
			// the cache stamped the hit with, so a hit reads the clock once
			// for both; the wall clock (not the injected test clock) because
			// this measures real compute time.
			s.fastPathHits.Add(uint64(len(run)))
			for k := range run {
				if s.trace != nil {
					s.trace(telemetry.PacketTrace{Point: telemetry.TraceFastPath, Src: from, Service: run[k].Hdr.Service, Conn: run[k].Hdr.Conn, Bytes: len(run[k].Payload)})
				}
				s.applyFastAction(tx, from, &run[k].Hdr, run[k].HdrRaw, run[k].Payload, &action)
			}
			// Every copy has been staged, sealed or requeued with a copy of
			// its header: the cache may reuse the rewrite's bytes.
			action.Release()
			s.release(run)
			s.fastPathNs.Observe(uint64(time.Since(start)))
			continue
		}
		for k := range run {
			s.handleMiss(from, run[k].Hdr, run[k].Payload, run[k].Buffer())
		}
	}
}

// release gives back the receive buffers of a run the terminus is done
// with, counting only those that go back: an injected packet has none.
func (s *SN) release(run []pipe.RxPacket) {
	var n uint64
	for k := range run {
		if run[k].Buffer() != nil {
			n++
		}
		run[k].Release()
	}
	s.rxBuffersReleased.Add(n)
}

// transitEndsHere reports whether hdr is an inter-edomain transit header that
// this SN must unwrap instead of looking up: one naming it as the final
// destination, or one too short to name any.
func (s *SN) transitEndsHere(hdr *wire.ILPHeader) bool {
	if hdr.Service != wire.SvcPeering {
		return false
	}
	finalDst, ok := wire.TransitFinalDst(hdr.Data)
	return !ok || finalDst == s.mgr.LocalAddr()
}

// unwrapTransit is the pipe-terminus built-in for a transit packet addressed
// to this SN: the header nested in the outer one's service data becomes the
// packet's header, and the original source, which it returns, its source,
// so the packet is served as if it had arrived that way — a cache hit when
// the inner flow is warm, the inner service's module otherwise. Nothing is
// copied: the inner header aliases the same buffer the outer one does. The
// previous hop src vouches for the original source, as it does for the
// packet. A header that does not decode (wire.Transit) is a counted drop,
// and the result is false.
func (s *SN) unwrapTransit(src wire.Addr, pkt *pipe.RxPacket) (wire.Addr, bool) {
	var t wire.Transit
	if err := t.DecodeFromBytes(pkt.Hdr.Data); err != nil {
		s.transitMalformed.Add(1)
		if s.trace != nil {
			s.trace(telemetry.PacketTrace{Point: telemetry.TraceDrop, Src: src, Service: pkt.Hdr.Service, Conn: pkt.Hdr.Conn, Bytes: len(pkt.Payload)})
		}
		return wire.Addr{}, false
	}
	s.transitUnwrapped.Add(1)
	pkt.Hdr, pkt.HdrRaw = t.Inner, t.InnerRaw
	return t.OrigSrc, true
}

// handleMiss is the shared post-lookup slow path: control-protocol packets
// are served inline, everything else is handed to its service module on a
// pooled Packet that carries rxBuf, the receive buffer hdr.Data and payload
// lie in (nil if they lie in none). The dispatcher worker that serves the
// packet recycles it, and gives rxBuf back, once the verdict is applied; a
// packet shed at a full module queue is recycled here.
func (s *SN) handleMiss(src wire.Addr, hdr wire.ILPHeader, payload, rxBuf []byte) {
	if hdr.Service == wire.SvcControl {
		s.handleControl(src, hdr.Conn, payload)
		return
	}
	if hdr.Service == wire.SvcHandoff {
		s.handleHandoff(src, payload)
		return
	}

	reg, ok := s.module(hdr.Service)
	if !ok {
		s.noModuleDrops.Add(1)
		if s.trace != nil {
			s.trace(telemetry.PacketTrace{Point: telemetry.TraceDrop, Src: src, Service: hdr.Service, Conn: hdr.Conn, Bytes: len(payload)})
		}
		return
	}
	pkt := leasePacket(src, hdr, payload, rxBuf)
	if !reg.disp.submit(pkt) {
		reg.disp.recycle(pkt)
		return
	}
	s.slowPathSent.Add(1)
	if s.trace != nil {
		s.trace(telemetry.PacketTrace{Point: telemetry.TraceSlowPath, Src: src, Service: hdr.Service, Conn: hdr.Conn, Bytes: len(payload)})
	}
}

// applyFastAction executes a cached decision on the fast path. Forwarding
// with no header rewrite reuses the raw inbound header bytes, so the whole
// hit path — decrypt, lookup, re-encrypt, send — allocates nothing; the next
// hop's copy of the datagram is the transport's (wire.RxCopy). It keeps no
// reference to payload: by the time it returns, each copy has been staged
// into a seal buffer (the worker's egress Sender), sealed into one
// (pipe.Manager), or snapshotted (requeue).
func (s *SN) applyFastAction(tx pipe.Sender, src wire.Addr, hdr *wire.ILPHeader, hdrRaw, payload []byte, action *cache.Action) {
	if action.Drop {
		s.ruleDrops.Add(1)
		if s.trace != nil {
			s.trace(telemetry.PacketTrace{Point: telemetry.TraceDrop, Src: src, Service: hdr.Service, Conn: hdr.Conn, Bytes: len(payload)})
		}
		return
	}
	hdrBytes := action.RewriteHeader
	if hdrBytes == nil {
		hdrBytes = hdrRaw
	}
	for _, dst := range action.Forward {
		if s.trace != nil {
			s.trace(telemetry.PacketTrace{Point: telemetry.TraceForward, Src: src, Dst: dst, Service: hdr.Service, Conn: hdr.Conn, Bytes: len(payload)})
		}
		s.sendHeaderBytes(tx, dst, hdrBytes, payload)
	}
}

// applyDecision executes a module's verdict after the slow path.
func (s *SN) applyDecision(pkt *Packet, d Decision) {
	for _, r := range d.Rules {
		s.cache.Add(r.Key, r.Action)
	}
	for _, k := range d.Invalidate {
		s.cache.Invalidate(k)
	}
	for i := range d.Forwards {
		f := &d.Forwards[i]
		hdr := f.Hdr
		if hdr == nil {
			hdr = &pkt.Hdr
		}
		payload := pkt.Payload
		if f.Payload != nil {
			payload = f.Payload
		}
		s.sendHeader(f.Dst, hdr, f.RewriteHeader, payload)
	}
}

// degradePacket executes a module's degraded action for one packet shed
// by its open circuit breaker: unmodified pass-through forwarding to the
// configured fallback next hop, or (the default) dropping it. The shed
// count itself is kept by the dispatcher.
func (s *SN) degradePacket(reg *registeredModule, pkt *Packet) {
	if reg.cfg.degraded == DegradedForward {
		s.sendHeader(reg.cfg.degradedDst, &pkt.Hdr, nil, pkt.Payload)
	}
}

// sendHeader forwards one packet copy from a dispatcher worker under enc, an
// encoded header (Forward.RewriteHeader), or hdr if enc is nil. Module
// verdicts and degraded forwards do not run on an rx worker, so they send
// through the manager (immediate path), which encodes hdr into the pooled
// buffer it seals in; only a packet that must wait for its pipe keeps a
// header of its own: a copy of enc, which may lie in the packet
// (Packet.RewriteBuf) and go with it once the verdict is applied, or a
// fresh encoding of hdr.
func (s *SN) sendHeader(dst wire.Addr, hdr *wire.ILPHeader, enc, payload []byte) {
	var err error
	if enc != nil {
		err = s.mgr.SendHeaderBytes(dst, enc, payload)
	} else {
		err = s.mgr.Send(dst, hdr, payload)
	}
	if errors.Is(err, pipe.ErrNoPipe) && !s.cfg.DisableAutoConnect {
		var encErr error
		if enc == nil {
			enc, encErr = hdr.Encode()
		} else {
			enc = append([]byte(nil), enc...)
		}
		if encErr == nil {
			s.requeue(dst, enc, payload)
			return
		}
	}
	s.noteForward(dst, err)
}

// noteForward accounts one forward that was handed to the pipe layer, or
// failed to be.
func (s *SN) noteForward(dst wire.Addr, err error) {
	if err != nil {
		s.forwardErrors.Add(1)
		s.cfg.Logf("sn %s: forward to %s failed: %v", s.Addr(), dst, err)
		return
	}
	s.forwarded.Add(1)
}

// onPeerDown reacts to dead-peer detection: every cached decision sourced
// from the dead peer or forwarding through it is invalidated, so those
// flows fall back to the slow path and are re-decided against the
// re-established pipe (which carries a fresh master secret and epoch).
func (s *SN) onPeerDown(addr wire.Addr, identity ed25519.PublicKey) {
	s.peersLost.Add(1)
	s.cache.InvalidateSource(addr)
	s.cache.InvalidateDest(addr)
	s.cfg.Logf("sn %s: pipe to %s died; decision cache invalidated for it", s.Addr(), addr)
	if s.cfg.OnPeerDown != nil {
		s.cfg.OnPeerDown(addr, identity)
	}
}

// sendHeaderBytes forwards one packet copy, optionally establishing the
// pipe on demand. When no pipe exists the packet is requeued (bounded per
// destination) rather than dropped, and a single establish-and-flush
// goroutine per destination performs the handshake: this method is called
// from a pipe-terminus rx worker, and a blocking handshake there
// would deadlock (the handshake reply may arrive on that same worker).
func (s *SN) sendHeaderBytes(tx pipe.Sender, dst wire.Addr, hdrBytes, payload []byte) {
	err := tx.SendHeaderBytes(dst, hdrBytes, payload)
	if errors.Is(err, pipe.ErrNoPipe) && !s.cfg.DisableAutoConnect {
		// hdrBytes may be the raw inbound header, which lies in a receive
		// buffer the fast path gives back once the action has run
		// (handleBatch): the requeued copy gets its own.
		s.requeue(dst, append([]byte(nil), hdrBytes...), payload)
		return
	}
	s.noteForward(dst, err)
}

// requeue holds one forward while dst's pipe (re-)establishes. It keeps
// hdr, which the caller must not write afterwards. payload may lie in a
// receive buffer the fast path gives back once the action has run
// (handleBatch), so it is snapshotted before the packet outlives the call.
func (s *SN) requeue(dst wire.Addr, hdr, payload []byte) {
	q := queuedSend{
		hdr:     hdr,
		payload: append([]byte(nil), payload...),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.forwardErrors.Add(1)
		return
	}
	if len(s.pendingSends[dst]) >= s.cfg.RequeueDepth {
		s.mu.Unlock()
		s.requeueDrops.Add(1)
		return
	}
	s.pendingSends[dst] = append(s.pendingSends[dst], q)
	spawn := !s.dialing[dst]
	if spawn {
		s.dialing[dst] = true
	}
	s.mu.Unlock()
	s.requeued.Add(1)
	if spawn {
		go s.establishAndFlush(dst)
	}
}

// establishAndFlush connects to dst (the pipe manager applies handshake
// backoff) and drains the destination's requeued forwards, including any
// that arrived while flushing.
func (s *SN) establishAndFlush(dst wire.Addr) {
	err := s.mgr.Connect(dst)
	if err != nil {
		s.cfg.Logf("sn %s: connect to %s failed: %v", s.Addr(), dst, err)
	}
	for {
		s.mu.Lock()
		q := s.pendingSends[dst]
		delete(s.pendingSends, dst)
		if len(q) == 0 {
			delete(s.dialing, dst)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		for _, p := range q {
			if err != nil {
				s.forwardErrors.Add(1)
				continue
			}
			if serr := s.mgr.SendHeaderBytes(dst, p.hdr, p.payload); serr != nil {
				s.forwardErrors.Add(1)
			} else {
				s.forwarded.Add(1)
			}
		}
	}
}

// Close stops all modules and tears down the node.
func (s *SN) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.mgr.Close()
	for _, reg := range *s.modules.Load() {
		reg.stopOnce.Do(func() {
			reg.disp.close()
			if st, ok := reg.mod.(Stopper); ok {
				if serr := st.Stop(); serr != nil && err == nil {
					err = serr
				}
			}
		})
	}
	return err
}

// snEnv implements Env for one registered module.
type snEnv struct {
	sn      *SN
	module  string
	service wire.ServiceID
}

func (e *snEnv) LocalAddr() wire.Addr { return e.sn.Addr() }
func (e *snEnv) Inject(src wire.Addr, hdr wire.ILPHeader, payload []byte) {
	e.sn.Inject(src, hdr, payload)
}
func (e *snEnv) Now() time.Time                         { return e.sn.cfg.Clock.Now() }
func (e *snEnv) After(d time.Duration) <-chan time.Time { return e.sn.cfg.Clock.After(d) }
func (e *snEnv) Connect(dst wire.Addr) error            { return e.sn.mgr.Connect(dst) }
func (e *snEnv) PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool) {
	return e.sn.mgr.PeerIdentity(addr)
}
func (e *snEnv) AddRule(k wire.FlowKey, a cache.Action) { e.sn.cache.Add(k, a) }
func (e *snEnv) InvalidateRule(k wire.FlowKey)          { e.sn.cache.Invalidate(k) }
func (e *snEnv) RuleHitCount(k wire.FlowKey) (uint64, bool) {
	return e.sn.cache.HitCount(k)
}
func (e *snEnv) RuleRecentlyUsed(k wire.FlowKey, w time.Duration) bool {
	return e.sn.cache.RecentlyUsed(k, w)
}

func (e *snEnv) Send(dst wire.Addr, hdr *wire.ILPHeader, payload []byte) error {
	err := e.sn.mgr.Send(dst, hdr, payload)
	if errors.Is(err, pipe.ErrNoPipe) && !e.sn.cfg.DisableAutoConnect {
		if cerr := e.sn.mgr.Connect(dst); cerr != nil {
			return cerr
		}
		return e.sn.mgr.Send(dst, hdr, payload)
	}
	return err
}

func (e *snEnv) key(k string) string {
	return fmt.Sprintf("%s/%s", e.module, k)
}

func (e *snEnv) Config(k string) ([]byte, bool) {
	e.sn.mu.Lock()
	defer e.sn.mu.Unlock()
	v, ok := e.sn.configStore[e.key(k)]
	return v, ok
}

func (e *snEnv) SetConfig(k string, v []byte) {
	e.sn.mu.Lock()
	defer e.sn.mu.Unlock()
	e.sn.configStore[e.key(k)] = append([]byte(nil), v...)
}

func (e *snEnv) Checkpoint(k string, data []byte) {
	e.sn.mu.Lock()
	defer e.sn.mu.Unlock()
	e.sn.checkpoints[e.key(k)] = append([]byte(nil), data...)
}

func (e *snEnv) Restore(k string) ([]byte, bool) {
	e.sn.mu.Lock()
	defer e.sn.mu.Unlock()
	v, ok := e.sn.checkpoints[e.key(k)]
	return v, ok
}

func (e *snEnv) Logf(format string, args ...any) {
	e.sn.cfg.Logf("[%s/%s] %s", e.sn.Addr(), e.module, fmt.Sprintf(format, args...))
}
