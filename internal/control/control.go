// Package control is the out-of-band control protocol between a host and
// its first-hop SN (§3.2: services "can be invoked by the host out of band
// (via a control protocol between the host and its first-hop SN)").
//
// A request is one JSON envelope, {"target", "op", "args"}, carried as the
// payload of a SvcControl packet; the SN answers on the same connection ID
// with {"ok", "error", "data"}. This package is the only one that knows the
// envelope: the SN's dispatch decodes requests and encodes replies here, a
// host's calls and a module's SN-to-SN requests encode here.
//
// Every op is declared once, as an Op value naming its service, its name,
// its args type A and its reply type R. The SN binds a handler to the
// declaration (sn.Handle) and a host calls through it (Op.Call), so neither
// side marshals args or replies by hand.
package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"interedge/internal/wire"
)

// ErrRefused wraps the error text of a reply whose op failed at the SN.
var ErrRefused = errors.New("control: operation refused")

// Request is the envelope of a control request.
type Request struct {
	Target wire.ServiceID  `json:"target"`
	Op     string          `json:"op"`
	Args   json.RawMessage `json:"args,omitempty"`
}

// Response is the envelope of a control reply.
type Response struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// None is the args or reply type of an op that takes or returns nothing;
// the envelope leaves it out.
type None struct{}

// Op declares one control op: the service it targets, its name, the type
// A of its args and the type R of its reply.
type Op[A, R any] struct {
	Service wire.ServiceID
	Name    string
}

// NewOp declares the op name of service svc.
func NewOp[A, R any](svc wire.ServiceID, name string) Op[A, R] {
	return Op[A, R]{Service: svc, Name: name}
}

// Request encodes a call of o with args a.
func (o Op[A, R]) Request(a A) ([]byte, error) {
	args, err := encode(a)
	if err != nil {
		return nil, fmt.Errorf("control: %s %s args: %w", o.Service, o.Name, err)
	}
	return json.Marshal(Request{Target: o.Service, Op: o.Name, Args: args})
}

// DecodeArgs decodes a request's args; absent args are A's zero value.
func (o Op[A, R]) DecodeArgs(raw json.RawMessage) (A, error) {
	var a A
	if len(raw) == 0 {
		return a, nil
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		return a, fmt.Errorf("%s %s: malformed args: %w", o.Service, o.Name, err)
	}
	return a, nil
}

// EncodeReply encodes o's reply data.
func (o Op[A, R]) EncodeReply(r R) (json.RawMessage, error) { return encode(r) }

// Caller sends encoded control requests to SNs; *host.Host is one.
type Caller interface {
	// RoundTrip sends one encoded request to sn and returns the payload of
	// its reply.
	RoundTrip(sn wire.Addr, req []byte) ([]byte, error)
	// FirstHop returns the caller's default first-hop SN.
	FirstHop() (wire.Addr, error)
}

// Call invokes o with args a at the SN sn and returns its reply. An op the
// SN refused fails with an error wrapping ErrRefused.
func (o Op[A, R]) Call(c Caller, sn wire.Addr, a A) (R, error) {
	var r R
	req, err := o.Request(a)
	if err != nil {
		return r, err
	}
	payload, err := c.RoundTrip(sn, req)
	if err != nil {
		return r, err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return r, fmt.Errorf("control: malformed reply to %s %s: %w", o.Service, o.Name, err)
	}
	if !resp.OK {
		return r, fmt.Errorf("%w: %s", ErrRefused, resp.Error)
	}
	if len(resp.Data) == 0 {
		return r, nil
	}
	if err := json.Unmarshal(resp.Data, &r); err != nil {
		return r, fmt.Errorf("control: malformed %s %s reply data: %w", o.Service, o.Name, err)
	}
	return r, nil
}

// CallFirstHop is Call at c's default first-hop SN.
func (o Op[A, R]) CallFirstHop(c Caller, a A) (R, error) {
	sn, err := c.FirstHop()
	if err != nil {
		var r R
		return r, err
	}
	return o.Call(c, sn, a)
}

// DecodeRequest parses the payload of a control packet as a request: one
// JSON object with known fields only and a non-empty op. Anything else —
// a reply above all, which always carries "ok" — is not a request, and a
// node must drop it unanswered, or two nodes could answer each other's
// replies forever.
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("control: not a request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Request{}, errors.New("control: not a request: trailing data")
	}
	if req.Op == "" {
		return Request{}, errors.New("control: not a request: no op")
	}
	return req, nil
}

// Reply encodes the reply to a request: data when err is nil, err's text
// otherwise.
func Reply(data json.RawMessage, err error) []byte {
	resp := Response{OK: true, Data: data}
	if err != nil {
		resp = Response{Error: err.Error()}
	}
	body, merr := json.Marshal(resp)
	if merr != nil {
		body, _ = json.Marshal(Response{Error: merr.Error()})
	}
	return body
}

// encode marshals an op's args or reply; None encodes as nothing.
func encode(v any) (json.RawMessage, error) {
	if _, none := v.(None); none {
		return nil, nil
	}
	return json.Marshal(v)
}
