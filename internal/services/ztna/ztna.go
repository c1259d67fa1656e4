// Package ztna implements zero-trust network access — Appendix B.2's
// worked example of a service whose connection establishment needs "a
// substantial amount of information" that "might not even fit in a single
// packet": clients submit a device-posture document fragmented across the
// ILP headers of several packets; the module reassembles it, checks the
// enterprise policy (minimum OS version, allowed users), and only then
// admits the flow toward the protected application backend.
//
// Per Appendix B.2, the module maintains an internal cache of its
// forwarding decisions: established connections survive arbitrary
// decision-cache eviction without re-running posture checks, because the
// module "must be able to make forwarding decisions not just for the
// first few packets in a connection, but for any arbitrary packet".
package ztna

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Packet kinds in the first byte of header data.
const (
	kindPosture byte = iota // client → SN: posture fragment
	kindData                // client → SN: established-flow data (small header)
)

// Errors returned by the service.
var (
	ErrBadHeader      = errors.New("ztna: malformed header data")
	ErrUnknownApp     = errors.New("ztna: unknown application")
	ErrNotEstablished = errors.New("ztna: connection not established")
	ErrPolicyDenied   = errors.New("ztna: posture rejected by policy")
)

// Posture is the client device's self-description — deliberately verbose,
// as real ZTNA posture documents are.
type Posture struct {
	User       string            `json:"user"`
	DeviceID   string            `json:"device_id"`
	OSVersion  int               `json:"os_version"`
	PatchLevel int               `json:"patch_level"`
	Attributes map[string]string `json:"attributes,omitempty"`
}

// AppPolicy protects one application.
type AppPolicy struct {
	App          string    `json:"app"`
	Backend      wire.Addr `json:"backend"` // host address
	MinOSVersion int       `json:"min_os_version"`
	AllowedUsers []string  `json:"allowed_users,omitempty"` // empty = all users
}

type flowState struct {
	fragments [][]byte
	have      int
	total     int
	// established is set once posture passed; backend is the admitted
	// destination. This is the module-internal decision cache of App B.2.
	established bool
	backend     wire.Addr
}

// Module is the ZTNA service for one SN.
type Module struct {
	idleTimeout time.Duration

	mu      sync.Mutex
	apps    map[string]AppPolicy
	flows   map[wire.FlowKey]*flowState
	started bool
	stop    chan struct{}
}

// Option configures the module.
type Option func(*Module)

// WithIdleTimeout expires established flows whose decision-cache entry has
// not been hit within d, using the Appendix B.2 hit-count API. Expired
// flows must re-run posture checks. Zero disables expiry.
func WithIdleTimeout(d time.Duration) Option {
	return func(m *Module) { m.idleTimeout = d }
}

// New creates the module.
func New(opts ...Option) *Module {
	m := &Module{
		apps:  make(map[string]AppPolicy),
		flows: make(map[wire.FlowKey]*flowState),
		stop:  make(chan struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Start implements sn.Starter: run the idle-flow collector when an idle
// timeout is configured ("We also provide an API that services can use to
// determine whether or not a decision cache entry has been recently
// used", App. B.2).
func (m *Module) Start(env sn.Env) error {
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	if m.idleTimeout <= 0 {
		return nil
	}
	go func() {
		for {
			select {
			case <-m.stop:
				return
			case <-env.After(m.idleTimeout / 2):
				m.collectIdle(env)
			}
		}
	}()
	return nil
}

// Stop implements sn.Stopper.
func (m *Module) Stop() error {
	m.mu.Lock()
	if m.started {
		m.started = false
		close(m.stop)
	}
	m.mu.Unlock()
	return nil
}

// collectIdle drops established flows whose cache entry has not been used
// within the idle window, invalidating the cache rule so the next packet
// needs a fresh posture exchange.
func (m *Module) collectIdle(env sn.Env) {
	m.mu.Lock()
	var idle []wire.FlowKey
	for key, fs := range m.flows {
		if !fs.established {
			continue
		}
		if !env.RuleRecentlyUsed(key, m.idleTimeout) {
			idle = append(idle, key)
			delete(m.flows, key)
		}
	}
	m.mu.Unlock()
	for _, key := range idle {
		env.InvalidateRule(key)
		env.Logf("ztna: flow %s expired after idle timeout", key)
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcZTNA }

// Name implements sn.Module.
func (*Module) Name() string { return "ztna" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// OpSetPolicy installs an application policy (invoked by the enterprise
// operator).
var OpSetPolicy = control.NewOp[AppPolicy, control.None](wire.SvcZTNA, "set_policy")

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{sn.Handle(OpSetPolicy, func(_ sn.Env, _ wire.Addr, p AppPolicy) (control.None, error) {
		if !p.Backend.IsValid() {
			return control.None{}, errors.New("ztna: policy names no backend")
		}
		m.mu.Lock()
		m.apps[p.App] = p
		m.mu.Unlock()
		return control.None{}, nil
	})}
}

// postureFragment encodes kind ‖ fragIdx(1) ‖ total(1) ‖ appLen(1) ‖ app ‖ fragment.
func postureFragment(idx, total int, app string, frag []byte) []byte {
	data := []byte{kindPosture, byte(idx), byte(total), byte(len(app))}
	data = append(data, app...)
	return append(data, frag...)
}

// DataHeader is the small steady-state header: kind ‖ appLen(1) ‖ app.
func DataHeader(app string) []byte {
	data := []byte{kindData, byte(len(app))}
	return append(data, app...)
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[0] {
	case kindPosture:
		return m.handlePosture(env, pkt)
	case kindData:
		return m.handleData(env, pkt)
	default:
		return sn.Decision{}, fmt.Errorf("ztna: unexpected kind %d", pkt.Hdr.Data[0])
	}
}

func (m *Module) handlePosture(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	data := pkt.Hdr.Data
	if len(data) < 4 {
		return sn.Decision{}, ErrBadHeader
	}
	idx, total, appLen := int(data[1]), int(data[2]), int(data[3])
	if len(data) < 4+appLen || total == 0 || idx >= total {
		return sn.Decision{}, ErrBadHeader
	}
	app := string(data[4 : 4+appLen])
	frag := data[4+appLen:]

	key := pkt.Key()
	m.mu.Lock()
	fs, ok := m.flows[key]
	if !ok {
		fs = &flowState{fragments: make([][]byte, total), total: total}
		m.flows[key] = fs
	}
	if fs.established {
		backend := fs.backend
		m.mu.Unlock()
		return admitDecision(pkt, backend), nil
	}
	if idx < len(fs.fragments) && fs.fragments[idx] == nil {
		fs.fragments[idx] = append([]byte(nil), frag...)
		fs.have++
	}
	complete := fs.have == fs.total
	var doc []byte
	if complete {
		for _, f := range fs.fragments {
			doc = append(doc, f...)
		}
	}
	policy, appKnown := m.apps[app]
	m.mu.Unlock()

	if !complete {
		return sn.Decision{}, nil // wait for more fragments
	}
	if !appKnown {
		return sn.Decision{}, ErrUnknownApp
	}
	var posture Posture
	if err := json.Unmarshal(doc, &posture); err != nil {
		return sn.Decision{}, fmt.Errorf("ztna: bad posture document: %w", err)
	}
	if err := evaluate(policy, posture); err != nil {
		env.Logf("ztna: %s denied for %s: %v", app, pkt.Src, err)
		m.mu.Lock()
		delete(m.flows, key)
		m.mu.Unlock()
		return sn.Decision{
			Rules: []sn.Rule{{Key: key, Action: cache.Action{Drop: true}}},
		}, nil
	}
	m.mu.Lock()
	fs.established = true
	fs.backend = policy.Backend
	fs.fragments = nil
	m.mu.Unlock()
	return admitDecision(pkt, policy.Backend), nil
}

// evaluate applies the policy to a posture document.
func evaluate(policy AppPolicy, p Posture) error {
	if p.OSVersion < policy.MinOSVersion {
		return fmt.Errorf("%w: OS version %d < required %d", ErrPolicyDenied, p.OSVersion, policy.MinOSVersion)
	}
	if len(policy.AllowedUsers) > 0 {
		allowed := false
		for _, u := range policy.AllowedUsers {
			if u == p.User {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("%w: user %q not allowed", ErrPolicyDenied, p.User)
		}
	}
	return nil
}

// admitDecision forwards the current packet to the backend (stripping the
// posture header down to the steady-state form) and installs the cache
// rule for the flow.
func admitDecision(pkt *sn.Packet, backend wire.Addr) sn.Decision {
	hdr := wire.ILPHeader{Service: wire.SvcZTNA, Conn: pkt.Hdr.Conn, Data: []byte{kindData, 0}}
	enc := pkt.RewriteBuf(hdr.EncodedSize())
	_, _ = hdr.SerializeTo(enc) // two bytes of data and a buffer of their size: it cannot fail
	return pkt.Route(backend, enc, wire.Addr{})
}

// handleData serves steady-state packets — including packets whose cache
// entry was evicted: the decision is recomputed from the module's internal
// flow map without re-running posture checks (App B.2).
func (m *Module) handleData(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	key := pkt.Key()
	m.mu.Lock()
	fs, ok := m.flows[key]
	established := ok && fs.established
	var backend wire.Addr
	if established {
		backend = fs.backend
	}
	m.mu.Unlock()
	if !established {
		return sn.Decision{}, ErrNotEstablished
	}
	return admitDecision(pkt, backend), nil
}

// EstablishedFlows reports the module-internal decision cache size (tests).
func (m *Module) EstablishedFlows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, fs := range m.flows {
		if fs.established {
			n++
		}
	}
	return n
}

// --- Client ------------------------------------------------------------------

// MaxFragment bounds posture bytes per packet, chosen small so real
// posture documents exercise the multi-packet path.
const MaxFragment = 512

// Connect submits the posture document over a new connection and returns
// it for subsequent data traffic. The caller should wait for backend
// traffic to confirm admission.
func Connect(h *host.Host, app string, posture Posture) (*host.Conn, error) {
	doc, err := json.Marshal(posture)
	if err != nil {
		return nil, err
	}
	conn, err := h.NewConn(wire.SvcZTNA)
	if err != nil {
		return nil, err
	}
	total := (len(doc) + MaxFragment - 1) / MaxFragment
	if total == 0 {
		total = 1
	}
	for i := 0; i < total; i++ {
		lo, hi := i*MaxFragment, (i+1)*MaxFragment
		if hi > len(doc) {
			hi = len(doc)
		}
		if err := conn.Send(postureFragment(i, total, app, doc[lo:hi]), nil); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}
