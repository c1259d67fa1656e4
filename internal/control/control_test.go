package control

import (
	"errors"
	"testing"

	"interedge/internal/wire"
)

type pingArgs struct {
	Peers []wire.Addr `json:"peers"`
}

var (
	opPing = NewOp[pingArgs, map[string]int](wire.SvcQoS, "ping")
	opNone = NewOp[None, None](wire.SvcControl, "health")
)

// The request and reply bytes are the protocol's: an op without args
// leaves "args" out, a reply without data leaves "data" out.
func TestEnvelopeBytes(t *testing.T) {
	req, err := opNone.Request(None{})
	if err != nil {
		t.Fatal(err)
	}
	if string(req) != `{"target":1,"op":"health"}` {
		t.Fatalf("request %s", req)
	}
	req, err = opPing.Request(pingArgs{Peers: []wire.Addr{wire.MustAddr("fd00::1")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(req) != `{"target":265,"op":"ping","args":{"peers":["fd00::1"]}}` {
		t.Fatalf("request %s", req)
	}
	for _, c := range []struct {
		data string
		err  error
		want string
	}{
		{"", nil, `{"ok":true}`},
		{`{"a":1}`, nil, `{"ok":true,"data":{"a":1}}`},
		{`{"a":1}`, errors.New("boom"), `{"ok":false,"error":"boom"}`},
	} {
		if got := Reply([]byte(c.data), c.err); string(got) != c.want {
			t.Errorf("Reply(%s, %v) = %s, want %s", c.data, c.err, got, c.want)
		}
	}
}

// A request is one object of known fields with an op; everything else —
// every reply included — is not.
func TestDecodeRequest(t *testing.T) {
	for _, p := range []string{
		`{"target":265,"op":"ping","args":{"x":1}}`,
		`{"op":"health"}`,
		` {"op":"health"} `,
	} {
		if _, err := DecodeRequest([]byte(p)); err != nil {
			t.Errorf("DecodeRequest(%s) = %v", p, err)
		}
	}
	for _, p := range []string{
		string(Reply(nil, nil)),
		string(Reply([]byte(`{"op":"x"}`), nil)),
		string(Reply(nil, errors.New("no"))),
		`{"op":"health","ok":true}`,
		`{"target":1}`,
		`{"target":1,"op":""}`,
		`{"op":"health"}{"op":"health"}`,
		`{"op":"health"`,
		`null`,
		`"health"`,
		``,
	} {
		if _, err := DecodeRequest([]byte(p)); err == nil {
			t.Errorf("DecodeRequest(%s) accepted", p)
		}
	}
}

// fakeCaller answers every request with one canned reply.
type fakeCaller struct {
	reply string
	sent  []byte
}

func (f *fakeCaller) RoundTrip(_ wire.Addr, req []byte) ([]byte, error) {
	f.sent = req
	return []byte(f.reply), nil
}

func (f *fakeCaller) FirstHop() (wire.Addr, error) { return wire.MustAddr("fd00::5"), nil }

func TestCallDecodesTheReply(t *testing.T) {
	c := &fakeCaller{reply: `{"ok":true,"data":{"n":2}}`}
	got, err := opPing.CallFirstHop(c, pingArgs{})
	if err != nil || got["n"] != 2 {
		t.Fatalf("reply %v err %v", got, err)
	}
	if req, err := DecodeRequest(c.sent); err != nil || req.Op != "ping" || req.Target != wire.SvcQoS {
		t.Fatalf("sent %s: %+v %v", c.sent, req, err)
	}
	c.reply = `{"ok":false,"error":"no such thing"}`
	if _, err := opPing.CallFirstHop(c, pingArgs{}); !errors.Is(err, ErrRefused) {
		t.Fatalf("refusal err = %v, want ErrRefused", err)
	}
	for _, bad := range []string{`garbage`, `{"ok":true,"data":"not a map"}`} {
		c.reply = bad
		if _, err := opPing.CallFirstHop(c, pingArgs{}); err == nil || errors.Is(err, ErrRefused) {
			t.Fatalf("reply %s: err = %v, want a decode error", bad, err)
		}
	}
}

func TestDecodeArgs(t *testing.T) {
	if a, err := opPing.DecodeArgs(nil); err != nil || a.Peers != nil {
		t.Fatalf("absent args = %+v, %v", a, err)
	}
	if _, err := opPing.DecodeArgs([]byte(`{"peers":["not-an-addr"]}`)); err == nil {
		t.Fatal("an address field holding no address decoded")
	}
}
