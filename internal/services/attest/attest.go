// Package attest implements the attestation support service (§6.2 and the
// prototype list in §6.3): clients challenge their SN with a nonce and
// receive a TPM quote over the node's platform configuration registers —
// including the measurements of enclave-hosted service modules — signed by
// the SN's endorsement key. A client that knows the SN's EK (e.g. from an
// IESP directory) can verify that the SN runs the software it claims.
package attest

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/tpm"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrNoNonce  = errors.New("attest: nonce required")
	ErrBadQuote = errors.New("attest: quote verification failed")
)

// Module is the attestation service for one SN.
type Module struct {
	tpm *tpm.TPM
}

// New creates the module bound to the SN's TPM.
func New(t *tpm.TPM) *Module { return &Module{tpm: t} }

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcAttest }

// Name implements sn.Module.
func (*Module) Name() string { return "attest" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// HandlePacket implements sn.Module; attestation is control-plane only.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	return sn.Decision{}, errors.New("attest: no data-plane traffic expected")
}

// QuoteArgs are the args of quote.
type QuoteArgs struct {
	Nonce []byte `json:"nonce"`
}

// WireQuote is the JSON form of a TPM quote.
type WireQuote struct {
	PCRs  []string `json:"pcrs"`
	Nonce []byte   `json:"nonce"`
	Sig   []byte   `json:"sig"`
	EK    []byte   `json:"ek"`
}

// OpQuote challenges the SN with a nonce; it answers with a quote.
var OpQuote = control.NewOp[QuoteArgs, WireQuote](wire.SvcAttest, "quote")

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{sn.Handle(OpQuote, func(_ sn.Env, _ wire.Addr, a QuoteArgs) (WireQuote, error) {
		if len(a.Nonce) == 0 {
			return WireQuote{}, ErrNoNonce
		}
		q := m.tpm.Quote(a.Nonce)
		wq := WireQuote{Nonce: q.Nonce, Sig: q.Sig, EK: m.tpm.EndorsementKey()}
		for i := range q.PCRs {
			wq.PCRs = append(wq.PCRs, hex.EncodeToString(q.PCRs[i][:]))
		}
		return wq, nil
	})}
}

// RequestQuote challenges the SN at via with nonce and returns the parsed
// quote.
func RequestQuote(h *host.Host, via wire.Addr, nonce []byte) (*WireQuote, error) {
	wq, err := OpQuote.Call(h, via, QuoteArgs{Nonce: nonce})
	if err != nil {
		return nil, err
	}
	return &wq, nil
}

// Verify checks a wire quote against the expected endorsement key and the
// verifier's nonce, returning the decoded PCR values.
func Verify(expectedEK ed25519.PublicKey, wq *WireQuote, nonce []byte) ([tpm.NumPCRs][32]byte, error) {
	var pcrs [tpm.NumPCRs][32]byte
	if !expectedEK.Equal(ed25519.PublicKey(wq.EK)) {
		return pcrs, fmt.Errorf("%w: endorsement key mismatch", ErrBadQuote)
	}
	if len(wq.PCRs) != tpm.NumPCRs {
		return pcrs, fmt.Errorf("%w: PCR count %d", ErrBadQuote, len(wq.PCRs))
	}
	for i, h := range wq.PCRs {
		b, err := hex.DecodeString(h)
		if err != nil || len(b) != 32 {
			return pcrs, fmt.Errorf("%w: PCR %d malformed", ErrBadQuote, i)
		}
		copy(pcrs[i][:], b)
	}
	q := tpm.Quote{PCRs: pcrs, Nonce: wq.Nonce, Sig: wq.Sig}
	if err := tpm.VerifyQuote(expectedEK, q, nonce); err != nil {
		return pcrs, err
	}
	return pcrs, nil
}
