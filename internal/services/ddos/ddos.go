// Package ddos implements DDoS protection (§6.2): customers register
// per-source rate limits for traffic addressed to them; the module polices
// flows with token buckets and — the InterEdge-specific part — offloads
// drop decisions for abusive sources into the pipe-terminus decision
// cache, so attack traffic dies on the fast path without touching the
// module (§4: "This cache is populated by the service modules").
//
// Drop rules expire after a penalty interval, after which the source is
// re-evaluated on the slow path.
package ddos

import (
	"errors"
	"net/netip"
	"sync"
	"time"

	"interedge/internal/control"
	"interedge/internal/sched"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrBadHeader    = errors.New("ddos: malformed header data")
	ErrNotProtected = errors.New("ddos: destination not protected here")
	ErrNotOwnTarget = errors.New("ddos: a host may protect only its own address")
)

// DefaultPenalty is how long a drop rule stays installed.
const DefaultPenalty = 2 * time.Second

type protection struct {
	rate    float64
	burst   float64
	buckets map[wire.Addr]*sched.TokenBucket
}

// Module is the DDoS protection service.
type Module struct {
	penalty time.Duration

	mu        sync.Mutex
	protected map[wire.Addr]*protection
	dropped   map[wire.FlowKey]time.Time // drop rules awaiting expiry
}

// New creates the module with the default penalty interval.
func New() *Module {
	return &Module{
		penalty:   DefaultPenalty,
		protected: make(map[wire.Addr]*protection),
		dropped:   make(map[wire.FlowKey]time.Time),
	}
}

// SetPenalty overrides the drop-rule lifetime (tests).
func (m *Module) SetPenalty(d time.Duration) { m.penalty = d }

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcDDoS }

// Name implements sn.Module.
func (*Module) Name() string { return "ddos" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// ProtectArgs are the args of protect and unprotect.
type ProtectArgs struct {
	Target wire.Addr `json:"target"`
	Rate   float64   `json:"rate"`  // bytes/sec per source
	Burst  float64   `json:"burst"` // bytes
}

// The service's control ops. Each acts only on the caller's own address:
// a host can protect itself, never strip or throttle another's protection.
var (
	OpProtect   = control.NewOp[ProtectArgs, control.None](wire.SvcDDoS, "protect")
	OpUnprotect = control.NewOp[ProtectArgs, control.None](wire.SvcDDoS, "unprotect")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpProtect, func(_ sn.Env, caller wire.Addr, a ProtectArgs) (control.None, error) {
			if a.Target != caller {
				return control.None{}, ErrNotOwnTarget
			}
			if a.Rate <= 0 || a.Burst <= 0 {
				return control.None{}, errors.New("ddos: rate and burst must be positive")
			}
			m.mu.Lock()
			m.protected[a.Target] = &protection{
				rate: a.Rate, burst: a.Burst,
				buckets: make(map[wire.Addr]*sched.TokenBucket),
			}
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpUnprotect, func(_ sn.Env, caller wire.Addr, a ProtectArgs) (control.None, error) {
			if a.Target != caller {
				return control.None{}, ErrNotOwnTarget
			}
			m.mu.Lock()
			delete(m.protected, a.Target)
			m.mu.Unlock()
			return control.None{}, nil
		}),
	}
}

// TargetData encodes the protected destination as header data.
func TargetData(dst wire.Addr) []byte {
	b := dst.As16()
	return b[:]
}

// HandlePacket implements sn.Module: police the (source → target) flow.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) != 16 {
		return sn.Decision{}, ErrBadHeader
	}
	var b [16]byte
	copy(b[:], pkt.Hdr.Data)
	target := netip.AddrFrom16(b).Unmap()

	now := env.Now()
	m.mu.Lock()
	prot, ok := m.protected[target]
	if !ok {
		m.mu.Unlock()
		return sn.Decision{}, ErrNotProtected
	}
	bucket, ok := prot.buckets[pkt.Src]
	if !ok {
		bucket = sched.NewTokenBucket(prot.rate, prot.burst, now)
		prot.buckets[pkt.Src] = bucket
	}
	m.mu.Unlock()

	size := len(pkt.Payload) + pkt.Hdr.EncodedSize()
	if bucket.Allow(size, now) {
		// Within rate: forward. Policing requires the slow path, so no
		// forward rule is installed.
		return sn.Decision{Forwards: []sn.Forward{{Dst: target}}}, nil
	}
	// Over rate: offload a drop rule so the rest of the attack dies at the
	// pipe-terminus. The rule must expire by timer: once installed, the
	// fast path handles (drops) the flow, so the module will not see
	// another packet to trigger expiry.
	key := pkt.Key()
	m.mu.Lock()
	if _, already := m.dropped[key]; already {
		m.mu.Unlock()
		return sn.Decision{}, nil
	}
	m.dropped[key] = now.Add(m.penalty)
	m.mu.Unlock()
	env.Logf("ddos: source %s exceeded rate toward %s; drop rule installed", pkt.Src, target)
	go func() {
		<-env.After(m.penalty)
		m.mu.Lock()
		delete(m.dropped, key)
		m.mu.Unlock()
		env.InvalidateRule(key)
	}()
	return sn.Decision{
		Rules: []sn.Rule{{Key: key, Action: cache.Action{Drop: true}}},
	}, nil
}

// ActiveDrops reports currently penalized flows (tests).
func (m *Module) ActiveDrops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dropped)
}
