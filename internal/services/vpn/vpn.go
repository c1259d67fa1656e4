// Package vpn implements the generic VPN service of §6.2: "a generic VPN
// service that provides a customer with a publicly reachable address,
// redirects incoming traffic to a customer-specified authentication
// service, and only allows in traffic that has been duly authenticated."
//
// A customer host registers a public name at its SN along with an
// authentication secret. External senders must present a proof (an HMAC
// over a challenge) on their first packet; once a flow authenticates, the
// SN installs a forward rule so the flow rides the fast path, and
// unauthenticated flows get drop rules.
package vpn

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"sync"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrBadHeader   = errors.New("vpn: malformed header data")
	ErrUnknownName = errors.New("vpn: unknown public name")
	ErrAuthFailed  = errors.New("vpn: authentication failed")
)

type endpoint struct {
	inside wire.Addr
	secret []byte
}

// Module is the VPN service for one SN.
type Module struct {
	mu        sync.Mutex
	endpoints map[string]endpoint // public name -> customer host
}

// New creates the module.
func New() *Module {
	return &Module{endpoints: make(map[string]endpoint)}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcVPN }

// Name implements sn.Module.
func (*Module) Name() string { return "vpn" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// RegisterArgs are the args of register and unregister.
type RegisterArgs struct {
	Name   string `json:"name"`
	Secret []byte `json:"secret"`
}

// The service's control ops. register binds a public name to the calling
// customer host with a shared authentication secret.
var (
	OpRegister   = control.NewOp[RegisterArgs, control.None](wire.SvcVPN, "register")
	OpUnregister = control.NewOp[RegisterArgs, control.None](wire.SvcVPN, "unregister")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpRegister, func(_ sn.Env, caller wire.Addr, a RegisterArgs) (control.None, error) {
			if a.Name == "" || len(a.Secret) == 0 {
				return control.None{}, errors.New("vpn: name and secret required")
			}
			m.mu.Lock()
			m.endpoints[a.Name] = endpoint{inside: caller, secret: append([]byte(nil), a.Secret...)}
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpUnregister, func(_ sn.Env, _ wire.Addr, a RegisterArgs) (control.None, error) {
			m.mu.Lock()
			delete(m.endpoints, a.Name)
			m.mu.Unlock()
			return control.None{}, nil
		}),
	}
}

// Proof computes the authentication proof a sender presents: HMAC of the
// sender's address and connection ID under the shared secret (the
// "customer-specified authentication service" distilled to a verifiable
// token).
func Proof(secret []byte, sender wire.Addr, conn wire.ConnectionID) []byte {
	mac := hmac.New(sha256.New, secret)
	b := sender.As16()
	mac.Write(b[:])
	var cb [8]byte
	for i := 0; i < 8; i++ {
		cb[i] = byte(uint64(conn) >> (56 - 8*i))
	}
	mac.Write(cb[:])
	return mac.Sum(nil)
}

// HeaderData builds the first-packet header: name length-prefixed plus
// proof. Subsequent packets may carry just the name (the flow is cached).
func HeaderData(name string, proof []byte) []byte {
	data := []byte{byte(len(name))}
	data = append(data, name...)
	return append(data, proof...)
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	nameLen := int(pkt.Hdr.Data[0])
	if len(pkt.Hdr.Data) < 1+nameLen {
		return sn.Decision{}, ErrBadHeader
	}
	name := string(pkt.Hdr.Data[1 : 1+nameLen])
	proof := pkt.Hdr.Data[1+nameLen:]

	m.mu.Lock()
	ep, ok := m.endpoints[name]
	m.mu.Unlock()
	if !ok {
		return sn.Decision{}, ErrUnknownName
	}
	want := Proof(ep.secret, pkt.Src, pkt.Hdr.Conn)
	if !hmac.Equal(proof, want) {
		// Unauthenticated: drop now and keep dropping on the fast path.
		// This is a decision, not a module failure — returning an error
		// would discard the drop rule.
		env.Logf("vpn: unauthenticated flow %s rejected", pkt.Key())
		return sn.Decision{
			Rules: []sn.Rule{{Key: pkt.Key(), Action: cache.Action{Drop: true}}},
		}, nil
	}
	// Authenticated: forward and cache the admission.
	return sn.Decision{
		Forwards: []sn.Forward{{Dst: ep.inside}},
		Rules: []sn.Rule{{
			Key:    pkt.Key(),
			Action: cache.Action{Forward: []wire.Addr{ep.inside}},
		}},
	}, nil
}

// --- Client helpers ----------------------------------------------------------

// Register binds a public name to the customer host at its first-hop SN.
func Register(h *host.Host, name string, secret []byte) error {
	_, err := OpRegister.CallFirstHop(h, RegisterArgs{Name: name, Secret: secret})
	return err
}

// Dial opens an authenticated connection to a VPN public name through the
// SN at via.
func Dial(h *host.Host, via wire.Addr, name string, secret []byte) (*host.Conn, error) {
	conn, err := h.NewConn(wire.SvcVPN, host.Via(via))
	if err != nil {
		return nil, err
	}
	proof := Proof(secret, h.Addr(), conn.ID())
	if err := conn.Send(HeaderData(name, proof), nil); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
