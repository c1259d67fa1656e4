package lab

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/cryptutil"
	"interedge/internal/host"
	"interedge/internal/services/anycast"
	"interedge/internal/services/attest"
	"interedge/internal/services/bulk"
	"interedge/internal/services/bundle"
	"interedge/internal/services/cdncache"
	"interedge/internal/services/ddos"
	"interedge/internal/services/echo"
	"interedge/internal/services/firewall"
	"interedge/internal/services/groupfan"
	"interedge/internal/services/ipfwd"
	"interedge/internal/services/mixnet"
	"interedge/internal/services/mobility"
	"interedge/internal/services/msgqueue"
	"interedge/internal/services/multicast"
	"interedge/internal/services/null"
	"interedge/internal/services/odns"
	"interedge/internal/services/ordered"
	"interedge/internal/services/pubsub"
	"interedge/internal/services/qos"
	"interedge/internal/services/relay"
	"interedge/internal/services/sdwan"
	"interedge/internal/services/vpn"
	"interedge/internal/services/ztna"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// registerEveryService registers one instance of every service module on
// node.
func registerEveryService(topo *Topology, ed *Edomain, node *sn.SN) error {
	odnsKey, err := cryptutil.NewStaticKeypair()
	if err != nil {
		return err
	}
	mix, err := mixnet.New(mixnet.NewKeyDirectory(), node.Addr())
	if err != nil {
		return err
	}
	rel, err := relay.New(relay.NewKeyDirectory(), node.Addr())
	if err != nil {
		return err
	}
	for _, m := range []sn.Module{
		anycast.New(ed.Core, topo.Fabric, topo.Global),
		attest.New(node.TPM()),
		bulk.New(),
		bundle.New(1 << 16),
		cdncache.New(1 << 16),
		ddos.New(),
		echo.New(),
		firewall.New(),
		ipfwd.New(topo.Global, topo.Fabric),
		mix,
		mobility.New(mobility.NewRegistry()),
		msgqueue.New(),
		multicast.New(ed.Core, topo.Fabric, topo.Global),
		null.New(),
		odns.NewResolver(odnsKey, nil),
		ordered.New(ordered.NewGPS(0), 50*time.Millisecond),
		pubsub.New(ed.Core, topo.Fabric, topo.Global),
		qos.New(),
		rel,
		sdwan.New(),
		vpn.New(),
		ztna.New(),
	} {
		if err := node.Register(m); err != nil {
			return err
		}
	}
	return nil
}

// seedOp adds a call of op with args a to the corpus.
func seedOp[A, R any](f *testing.F, op control.Op[A, R], a A) {
	args, err := json.Marshal(a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(op.Service), op.Name, args)
}

// FuzzControlOps sends random control requests (service, op, args) from
// two hosts to one SN that serves every service module, and sends each
// reply back to the SN as if it were a request. It fails if any op
// panics, if a well-formed request gets anything but exactly one reply, or
// if the SN answers a packet that is no request.
func FuzzControlOps(f *testing.F) {
	topo := New()
	f.Cleanup(topo.Close)
	ed, err := topo.AddEdomain("fuzz", 1, func(node *sn.SN, ed *Edomain) error {
		return registerEveryService(topo, ed, node)
	})
	if err != nil {
		f.Fatal(err)
	}
	node := ed.SNs[0]
	var hosts [2]*host.Host
	for i := range hosts {
		if hosts[i], err = topo.NewHost(ed, 0); err != nil {
			f.Fatal(err)
		}
	}
	self, other := hosts[0].Addr(), hosts[1].Addr()

	group := groupfan.Args{Group: "g"}
	for _, ops := range []groupfan.Ops{groupfan.OpsOf(wire.SvcPubSub), groupfan.OpsOf(wire.SvcMulticast), groupfan.OpsOf(wire.SvcAnycast)} {
		seedOp(f, ops.Join, group)
		seedOp(f, ops.Leave, group)
		seedOp(f, ops.RegisterSender, group)
		seedOp(f, ops.UnregisterSender, group)
	}
	seedOp(f, sn.OpHealth, control.None{})
	seedOp(f, sn.OpMetrics, control.None{})
	seedOp(f, attest.OpQuote, attest.QuoteArgs{Nonce: []byte("n")})
	seedOp(f, bulk.OpStat, bulk.StatArgs{Name: "d"})
	seedOp(f, cdncache.OpPublish, cdncache.PublishArgs{Name: "x", Origin: other})
	seedOp(f, cdncache.OpStats, control.None{})
	seedOp(f, ddos.OpProtect, ddos.ProtectArgs{Target: self, Rate: 1, Burst: 1})
	seedOp(f, ddos.OpUnprotect, ddos.ProtectArgs{Target: other})
	seedOp(f, firewall.OpSetRules, firewall.SetRulesArgs{DefaultAllow: true})
	seedOp(f, firewall.OpStats, control.None{})
	seedOp(f, mobility.OpRegister, control.None{})
	seedOp(f, mobility.OpLocate, mobility.LocateArgs{Identity: []byte("id")})
	seedOp(f, msgqueue.OpCreate, msgqueue.CreateArgs{Topic: "t", Mirrors: []wire.Addr{node.Addr()}})
	seedOp(f, msgqueue.OpCreateMirror, msgqueue.CreateArgs{Topic: "m"})
	seedOp(f, msgqueue.OpFetch, msgqueue.FetchArgs{Topic: "t", Group: "g"})
	seedOp(f, msgqueue.OpCommit, msgqueue.CommitArgs{Topic: "t", Group: "g", Offset: 1})
	seedOp(f, ordered.OpSubscribe, ordered.SubscribeArgs{Channel: "c"})
	seedOp(f, ordered.OpAddPeer, ordered.SubscribeArgs{Channel: "c", Peers: []wire.Addr{other}})
	seedOp(f, qos.OpConfigure, qos.ConfigArgs{BandwidthBps: 1e6, Mode: "wfq"})
	seedOp(f, qos.OpClear, control.None{})
	seedOp(f, sdwan.OpConfigure, sdwan.ConfigArgs{Uplinks: []wire.Addr{other}, Policy: map[sdwan.Class][]int{1: {0}}})
	seedOp(f, sdwan.OpSetHealth, sdwan.HealthArgs{Uplink: other})
	seedOp(f, vpn.OpRegister, vpn.RegisterArgs{Name: "n", Secret: []byte("s")})
	seedOp(f, vpn.OpUnregister, vpn.RegisterArgs{Name: "n"})
	seedOp(f, ztna.OpSetPolicy, ztna.AppPolicy{App: "a", Backend: other})
	f.Add(uint32(wire.SvcDDoS), "protect", []byte(`{"target":"not-an-addr"}`))
	f.Add(uint32(wire.SvcQoS), "configure", []byte(`{"classes":[{"prefix":"::/129"}]}`))
	f.Add(uint32(wire.SvcMsgQueue), "nope", []byte(`[`))
	f.Add(uint32(0xdead), "", []byte(nil))

	f.Fuzz(func(t *testing.T, svc uint32, op string, args []byte) {
		from := hosts[len(op)%2]
		opJSON, _ := json.Marshal(op)
		payload := fmt.Appendf(nil, `{"target":%d,"op":%s}`, svc, opJSON)
		if len(args) > 0 {
			payload = fmt.Appendf(nil, `{"target":%d,"op":%s,"args":%s}`, svc, opJSON, args)
		}
		if op != "" && (len(args) == 0 || json.Valid(args)) {
			// A well-formed request: exactly one reply, and a well-formed
			// one. A second reply would show up as an unclaimed packet.
			reply, err := from.RoundTrip(node.Addr(), payload)
			if err != nil {
				t.Fatalf("request %s: %v", payload, err)
			}
			var resp control.Response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("request %s: reply %q is no reply: %v", payload, reply, err)
			}
			// The reply goes back to the SN, which must not answer it.
			sendControl(t, hosts[1-len(op)%2], node.Addr(), reply)
		} else {
			sendControl(t, from, node.Addr(), payload)
		}
		// One request per host as a barrier: the SN serves a source's
		// packets in order, so once these are answered every answer to the
		// packets above has arrived.
		for _, h := range hosts {
			if _, err := sn.OpHealth.Call(h, node.Addr(), control.None{}); err != nil {
				t.Fatalf("barrier: %v", err)
			}
			if n := h.UnclaimedPackets(); n != 0 {
				t.Fatalf("after %s: host %s holds %d unclaimed packets: the SN answered a non-request or answered twice", payload, h.Addr(), n)
			}
		}
		for _, s := range node.Telemetry().Snapshot() {
			if s.Value != 0 && (strings.HasPrefix(s.Name, "sn_module_panics_total") || strings.Contains(s.Name, `result="panic"`)) {
				t.Fatalf("after %s: %s = %v", payload, s.Name, s.Value)
			}
		}
	})
}

// sendControl sends payload from h to dst as a control packet, expecting
// no answer.
func sendControl(t *testing.T, h *host.Host, dst wire.Addr, payload []byte) {
	t.Helper()
	if err := h.Pipes().Send(dst, &wire.ILPHeader{Service: wire.SvcControl, Conn: 1 << 62}, payload); err != nil {
		t.Fatal(err)
	}
}
