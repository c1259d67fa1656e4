package sn

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// rawRequest writes a request envelope by hand, as a foreign client would;
// args is raw JSON, left out when empty.
func rawRequest(target wire.ServiceID, op, args string) []byte {
	if args == "" {
		return fmt.Appendf(nil, `{"target":%d,"op":%q}`, target, op)
	}
	return fmt.Appendf(nil, `{"target":%d,"op":%q,"args":%s}`, target, op, args)
}

// control sends payload to dst as a control packet on conn and decodes the
// reply, which must come back on the same connection ID.
func (c *client) control(t *testing.T, dst wire.Addr, conn wire.ConnectionID, payload []byte) control.Response {
	t.Helper()
	if err := c.mgr.Send(dst, &wire.ILPHeader{Service: wire.SvcControl, Conn: conn}, payload); err != nil {
		t.Fatal(err)
	}
	got := c.await(t)
	if got.hdr.Service != wire.SvcControl || got.hdr.Conn != conn {
		t.Fatalf("reply header %+v, want control on conn %d", got.hdr, conn)
	}
	var resp control.Response
	if err := json.Unmarshal(got.payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// quiet fails if any packet reaches the client within d.
func (c *client) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case p := <-c.rx:
		t.Fatalf("unexpected packet %+v payload %q", p.hdr, p.payload)
	case <-time.After(d):
	}
}

func newCtrlNode(t *testing.T) (*SN, *client) {
	t.Helper()
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	if err := node.Register(ctrlModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	return node, cl
}

// TestControlUnknownOpRefused: a request naming an op its service does not
// serve is refused, and counted without its caller-chosen names.
func TestControlUnknownOpRefused(t *testing.T) {
	node, cl := newCtrlNode(t)
	resp := cl.control(t, node.Addr(), 3, rawRequest(wire.SvcQoS, "unknown-op", ""))
	if resp.OK || !strings.Contains(resp.Error, "unknown-op") {
		t.Fatalf("unknown op answered %+v", resp)
	}
	if v := node.Telemetry().Snapshot().Value(controlOpsName("unknown", "unknown", "error")); v != 1 {
		t.Fatalf("unknown-op count = %v, want 1", v)
	}
}

// TestControlHandlerErrorRefused: a handler's error is its caller's refusal.
func TestControlHandlerErrorRefused(t *testing.T) {
	node, cl := newCtrlNode(t)
	if resp := cl.control(t, node.Addr(), 3, rawRequest(wire.SvcQoS, "refuse", "")); resp.OK || resp.Error != "refused" {
		t.Fatalf("refusing op answered %+v", resp)
	}
}

// TestMalformedControlArgsRefused: args that do not decode into the op's
// args type — an address field that is no address, a value of the wrong
// shape — are refused before any handler runs, and the node goes on
// answering.
func TestMalformedControlArgsRefused(t *testing.T) {
	node, cl := newCtrlNode(t)
	for _, args := range []string{`["not-an-addr"]`, `"fd00::1"`, `{"peers":[]}`} {
		resp := cl.control(t, node.Addr(), 4, rawRequest(wire.SvcQoS, "peers", args))
		if resp.OK || !strings.Contains(resp.Error, "malformed args") {
			t.Fatalf("peers %s answered %+v", args, resp)
		}
	}
	resp := cl.control(t, node.Addr(), 5, rawRequest(wire.SvcQoS, "peers", `["fd00::1","fd00::2"]`))
	if !resp.OK || string(resp.Data) != "2" {
		t.Fatalf("peers after the refusals answered %+v data=%s", resp, resp.Data)
	}
	if resp := cl.control(t, node.Addr(), 6, rawRequest(wire.SvcControl, "health", "")); !resp.OK {
		t.Fatalf("health after the refusals: %s", resp.Error)
	}
}

// TestControlNeverAnswersAReply: a control packet that is not a request —
// a reply above all — is dropped and counted, never answered. Two nodes
// that answered each other's replies would bounce them forever.
func TestControlNeverAnswersAReply(t *testing.T) {
	node, cl := newCtrlNode(t)
	notRequests := []string{
		`{"ok":true}`,
		`{"ok":false,"error":"service qos has no control op \"x\""}`,
		`{"ok":true,"data":{"pong":"hi"}}`,
		`{"target":265,"op":"ping","ok":true}`,
		`{"target":265}`,
		`{"target":265,"op":""}`,
		`{"target":265,"op":"ping"} {}`,
		`[]`,
		`null`,
		`not json`,
		``,
	}
	for i, p := range notRequests {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcControl, Conn: wire.ConnectionID(100 + i)}, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// The node serves one source's packets in order, so the first packet
	// back answers this request, not any of the ones before it.
	if resp := cl.control(t, node.Addr(), 7, rawRequest(wire.SvcNone, "health", "")); !resp.OK {
		t.Fatalf("health: %s", resp.Error)
	}
	cl.quiet(t, 100*time.Millisecond)
	if v := node.Telemetry().Snapshot().Value(controlOpsName("unknown", "unknown", "dropped")); v != float64(len(notRequests)) {
		t.Fatalf("dropped = %v, want %d", v, len(notRequests))
	}
}

// TestControlOpsCounted: the dispatch counts every request in one family,
// sn_control_ops_total{service,op,result}, whose members exist from the
// moment their op is registered; the metrics op reads it.
func TestControlOpsCounted(t *testing.T) {
	node, cl := newCtrlNode(t)
	for _, name := range []string{
		controlOpsName("qos", "ping", "ok"),
		controlOpsName("qos", "refuse", "error"),
		controlOpsName("control", "health", "panic"),
		controlOpsName("control", "metrics", "ok"),
	} {
		if _, ok := node.Telemetry().Snapshot().Get(name); !ok {
			t.Fatalf("%s not registered with its op", name)
		}
	}
	cl.control(t, node.Addr(), 1, rawRequest(wire.SvcQoS, "ping", `"a"`))
	cl.control(t, node.Addr(), 2, rawRequest(wire.SvcQoS, "ping", `"b"`))
	cl.control(t, node.Addr(), 3, rawRequest(wire.SvcQoS, "refuse", ""))
	cl.control(t, node.Addr(), 4, rawRequest(wire.SvcQoS, "nope", ""))
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcControl, Conn: 5}, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	resp := cl.control(t, node.Addr(), 6, rawRequest(wire.SvcNone, "metrics", ""))
	if !resp.OK {
		t.Fatalf("metrics: %s", resp.Error)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Data, &snap); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		controlOpsName("qos", "ping", "ok"):                            2,
		controlOpsName("qos", "ping", "error"):                         0,
		controlOpsName("qos", "refuse", "error"):                       1,
		controlOpsName("unknown", "unknown", "error"):                  1,
		controlOpsName("unknown", "unknown", "dropped"):                1,
		controlOpsName("control", "metrics", "ok"):                     0, // counted after it answers
		controlOpsName("control", "health", "ok"):                      0,
		`sn_control_ops_total{service="qos",op="ping",result="panic"}`: 0,
	} {
		if got, ok := snap.Get(name); !ok || got.Value != want {
			t.Errorf("%s = %+v (present %v), want %v", name, got.Value, ok, want)
		}
	}
}

// foreignOpsModule declares an op of a service other than its own.
type foreignOpsModule struct{ failModule }

func (foreignOpsModule) ControlOps() []ControlOp {
	return []ControlOp{Handle(opRefuse, func(Env, wire.Addr, control.None) (control.None, error) {
		return control.None{}, nil
	})}
}

// dupOpsModule declares one op twice.
type dupOpsModule struct{ ctrlModule }

func (dupOpsModule) ControlOps() []ControlOp {
	return append(ctrlModule{}.ControlOps(), ctrlModule{}.ControlOps()[0])
}

// TestRegisterRejectsBadControlOps: a module may serve only ops of its own
// service, each once, and not the health op the SN serves for it.
func TestRegisterRejectsBadControlOps(t *testing.T) {
	node := newTestSN(t, netsim.NewNetwork(), "fd00::5")
	if err := node.Register(foreignOpsModule{}); err == nil {
		t.Fatal("module serving another service's op registered")
	}
	if err := node.Register(dupOpsModule{}); err == nil {
		t.Fatal("module serving one op twice registered")
	}
	// Neither failed registration left a module or an op behind.
	if err := node.Register(ctrlModule{}); err != nil {
		t.Fatal(err)
	}
}

// TestControlTableWhileRegistering: the dispatch reads the control table
// on the receive path while Register publishes new ops into it.
func TestControlTableWhileRegistering(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, m := range []Module{ctrlModule{}, failModule{}, &echoModule{}} {
			if err := node.Register(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for registered := false; !registered; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			registered = true
		default:
		}
		cl.control(t, node.Addr(), 1, rawRequest(wire.SvcQoS, "ping", `"x"`))
	}
	for _, svc := range []wire.ServiceID{wire.SvcQoS, wire.SvcNull, wire.SvcEcho} {
		if resp := cl.control(t, node.Addr(), 2, rawRequest(svc, "health", "")); !resp.OK {
			t.Fatalf("health of %s after registration: %s", svc, resp.Error)
		}
	}
}
