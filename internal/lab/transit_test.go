package lab

import (
	"fmt"
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// transitLab is two edomains running ipfwd over SN-tier resolution caches
// (so republishes reach the decision caches), meshed.
func transitLab(t *testing.T, snsA, snsB int) (topo *Topology, edA, edB *Edomain) {
	t.Helper()
	topo = New()
	t.Cleanup(topo.Close)
	setup := func(node *sn.SN, ed *Edomain) error {
		return node.Register(ipfwd.New(topo.NewNodeResolver(ed, node), topo.Fabric))
	}
	var err error
	if edA, err = topo.AddEdomain("ed-a", snsA, setup); err != nil {
		t.Fatal(err)
	}
	if edB, err = topo.AddEdomain("ed-b", snsB, setup); err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	return topo, edA, edB
}

// inbox collects the ipfwd payloads a host receives.
func inbox(h *host.Host) chan string {
	ch := make(chan string, 256)
	h.OnService(wire.SvcIPFwd, func(m host.Message) { ch <- string(m.Payload) })
	return ch
}

func expect(t *testing.T, ch chan string, want string) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("received %q, want %q", got, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("%q never arrived", want)
	}
}

func sumForwarded(eds ...*Edomain) (n float64) {
	for _, ed := range eds {
		for _, node := range ed.SNs {
			n += node.Telemetry().Snapshot().Value("sn_forwarded_total")
		}
	}
	return n
}

// TestEqualConnectionIDsFromTwoHosts: every host numbers its connections
// from the same start, so two hosts behind one SN send cross-edomain flows
// with equal connection IDs. Each flow must keep its own transit rules: all
// packets reach the right host, over the four SN hops of the gateway chain
// and no more (the flows once shared rules, and the destination edomain's
// SNs passed the packets between them without end).
func TestEqualConnectionIDsFromTwoHosts(t *testing.T) {
	topo, edA, edB := transitLab(t, 2, 3)
	const packets = 20
	type flow struct {
		conn *host.Conn
		dst  wire.Addr
		in   chan string
	}
	var flows []flow
	for i := 1; i <= 2; i++ {
		sender, err := topo.NewHost(edA, 1)
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := topo.NewHost(edB, i)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := sender.NewConn(wire.SvcIPFwd)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		flows = append(flows, flow{conn: conn, dst: receiver.Addr(), in: inbox(receiver)})
	}
	if flows[0].conn.ID() != flows[1].conn.ID() {
		t.Fatalf("connection IDs %d and %d: the hosts no longer collide, the test proves nothing",
			flows[0].conn.ID(), flows[1].conn.ID())
	}
	// One packet in flight at a time, the flows taking turns: each packet
	// meets the rules the other flow's last packet left behind.
	for p := 0; p < packets; p++ {
		for i, f := range flows {
			msg := fmt.Sprintf("flow %d packet %d", i, p)
			if err := f.conn.Send(ipfwd.DestData(f.dst), []byte(msg)); err != nil {
				t.Fatal(err)
			}
			expect(t, f.in, msg)
		}
	}
	time.Sleep(50 * time.Millisecond) // a loop would keep forwarding
	const hops = 4                    // SN → gateway → gateway → SN → host
	if fwd := sumForwarded(edA, edB); fwd > hops*2*packets {
		t.Fatalf("SNs forwarded %v packet copies, want at most %v", fwd, hops*2*packets)
	}
	for _, f := range flows {
		if len(f.in) != 0 {
			t.Fatalf("a receiver got %d packets too many, the first %q", len(f.in), <-f.in)
		}
	}
}

// TestWarmFlowFollowsRepublishedDestination: the first-hop SN of a warm flow
// holds the decision that names the destination's SN. When the destination
// moves to another SN and republishes, the next packet is decided again and
// goes to the new SN; none travels by way of the old one.
func TestWarmFlowFollowsRepublishedDestination(t *testing.T) {
	for name, cross := range map[string]bool{"cross-edomain": true, "same-edomain": false} {
		t.Run(name, func(t *testing.T) {
			topo, edA, edB := transitLab(t, 2, 3)
			srcEd := edA
			if !cross {
				srcEd = edB
			}
			sender, err := topo.NewHost(srcEd, 0)
			if err != nil {
				t.Fatal(err)
			}
			mobile, err := topo.NewHost(edB, 1)
			if err != nil {
				t.Fatal(err)
			}
			in := inbox(mobile)
			conn, err := sender.NewConn(wire.SvcIPFwd)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			send := func(tag string) {
				t.Helper()
				if err := conn.Send(ipfwd.DestData(mobile.Addr()), []byte(tag)); err != nil {
					t.Fatal(err)
				}
				expect(t, in, tag)
			}
			ingress, oldSN := srcEd.SNs[0], edB.SNs[1]
			send("first")
			decided := ingress.Telemetry().Snapshot().Value("sn_slowpath_sent_total")
			for i := 0; i < 4; i++ {
				send(fmt.Sprintf("warm %d", i))
			}
			if slow := ingress.Telemetry().Snapshot().Value("sn_slowpath_sent_total") - decided; slow != 0 {
				t.Fatalf("ingress SN took the slow path %v times for 4 packets of a decided flow", slow)
			}

			if err := topo.MoveHost(mobile, edB, 2); err != nil {
				t.Fatal(err)
			}
			// One publish: the ingress SN's resolution cache hears of it
			// and drops the rule that depended on the old record.
			deadline := time.Now().Add(3 * time.Second)
			for ingress.Telemetry().Snapshot().Value(`cache_invalidated_total{cause="dest"}`) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the republish never invalidated the ingress SN's rule")
				}
				time.Sleep(time.Millisecond)
			}
			viaOld := oldSN.Telemetry().Snapshot().Value("sn_rx_packets_total")
			for i := 0; i < 4; i++ {
				send(fmt.Sprintf("moved %d", i))
			}
			if n := oldSN.Telemetry().Snapshot().Value("sn_rx_packets_total") - viaOld; n != 0 {
				t.Fatalf("%v packets went by way of the SN the destination left", n)
			}
			if ingress.Telemetry().Snapshot().Value("sn_slowpath_sent_total") == decided {
				t.Fatal("the flow was not decided again after the republish")
			}
		})
	}
}

// TestRouteChangeMovesWarmFlow: SNs cache next hops taken from the fabric's
// routes, so a route publish drops them. A warm flow on the gateway chain
// goes direct once direct connect is on, and back when it is off.
func TestRouteChangeMovesWarmFlow(t *testing.T) {
	topo, edA, edB := transitLab(t, 2, 2)
	sender, err := topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(edB, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := inbox(receiver)
	conn, err := sender.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gateway := edA.Gateway()
	// viaGateway sends four packets and reports how many crossed ed-a's
	// gateway.
	viaGateway := func(tag string) float64 {
		t.Helper()
		before := gateway.Telemetry().Snapshot().Value("sn_rx_packets_total")
		for i := 0; i < 4; i++ {
			msg := fmt.Sprintf("%s %d", tag, i)
			if err := conn.Send(ipfwd.DestData(receiver.Addr()), []byte(msg)); err != nil {
				t.Fatal(err)
			}
			expect(t, in, msg)
		}
		return gateway.Telemetry().Snapshot().Value("sn_rx_packets_total") - before
	}
	if n := viaGateway("chain"); n != 4 {
		t.Fatalf("%v of 4 packets crossed the gateway before direct connect, want 4", n)
	}
	topo.Fabric.SetDirectConnect(true)
	if n := viaGateway("direct"); n != 0 {
		t.Fatalf("%v of 4 packets still crossed the gateway with direct connect on", n)
	}
	topo.Fabric.SetDirectConnect(false)
	if n := viaGateway("chain again"); n != 4 {
		t.Fatalf("%v of 4 packets crossed the gateway with direct connect off again, want 4", n)
	}
}
