package firewall

import (
	"net/netip"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain) {
	t.Helper()
	topo := lab.New()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.SNs[0].Register(New()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed
}

func TestDefaultAllowForwards(t *testing.T) {
	topo, ed := newWorld(t)
	server, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	server.OnService(wire.SvcFirewall, func(msg host.Message) { got <- msg.Clone() })
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.NewConn(wire.SvcFirewall)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(server.Addr()), []byte("in")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "in" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDenyRuleBlocksAndOffloads(t *testing.T) {
	topo, ed := newWorld(t)
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	blockedClient, err := topo.NewHostAt("fd00:bad::1")
	if err != nil {
		t.Fatal(err)
	}
	if err := blockedClient.Associate(ed.SNs[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpSetRules.CallFirstHop(operator, SetRulesArgs{
		Rules:        []Rule{{Prefix: netip.MustParsePrefix("fd00:bad::/32"), Allow: false}},
		DefaultAllow: true,
	}); err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	server.OnService(wire.SvcFirewall, func(msg host.Message) { got <- msg.Clone() })
	conn, err := blockedClient.NewConn(wire.SvcFirewall)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := conn.Send(HeaderData(server.Addr()), []byte("evil")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-got:
		t.Fatal("denied traffic delivered")
	case <-time.After(200 * time.Millisecond):
	}
	// Repeat packets die on the fast path.
	for i := 0; i < 3; i++ {
		if err := conn.Send(HeaderData(server.Addr()), []byte("evil")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Telemetry().Snapshot().Value("sn_rule_drops_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("denied flow not offloaded to fast path")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFirstMatchWins(t *testing.T) {
	topo, ed := newWorld(t)
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Specific allow before broad deny.
	if _, err := OpSetRules.CallFirstHop(operator, SetRulesArgs{
		Rules: []Rule{
			{Prefix: netip.MustParsePrefix("fd00:bad:1::/48"), Allow: true},
			{Prefix: netip.MustParsePrefix("fd00:bad::/32"), Allow: false},
		},
		DefaultAllow: true,
	}); err != nil {
		t.Fatal(err)
	}
	goodClient, err := topo.NewHostAt("fd00:bad:1::5")
	if err != nil {
		t.Fatal(err)
	}
	if err := goodClient.Associate(ed.SNs[0].Addr()); err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	server.OnService(wire.SvcFirewall, func(msg host.Message) { got <- msg.Clone() })
	conn, err := goodClient.NewConn(wire.SvcFirewall)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(server.Addr()), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("specifically-allowed traffic blocked")
	}
}

func TestDefaultDeny(t *testing.T) {
	topo, ed := newWorld(t)
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpSetRules.CallFirstHop(operator, SetRulesArgs{DefaultAllow: false}); err != nil {
		t.Fatal(err)
	}
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	server.OnService(wire.SvcFirewall, func(msg host.Message) { got <- msg.Clone() })
	conn, err := client.NewConn(wire.SvcFirewall)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(server.Addr()), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("default-deny delivered traffic")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestStatsAndValidation(t *testing.T) {
	topo, ed := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpSetRules.CallFirstHop(h, SetRulesArgs{Rules: []Rule{{Allow: true}}}); err == nil {
		t.Fatal("rule with no prefix accepted")
	}
	if _, err := OpStats.CallFirstHop(h, control.None{}); err != nil {
		t.Fatal(err)
	}
}
