package lab

import (
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// The same node code that runs on the in-process fabric runs over real
// UDP sockets: an SN and a host on loopback, full ILP stack.
func TestUDPTransportDeployment(t *testing.T) {
	dir := netsim.NewUDPDirectory()

	snAddr := wire.MustAddr("fd00::100")
	snTr, err := netsim.NewUDPTransport(snAddr, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	snID, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	node, err := sn.New(sn.Config{Transport: snTr, Identity: snID})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Register(echo.New()); err != nil {
		t.Fatal(err)
	}

	hostAddr := wire.MustAddr("fd00::1")
	hostTr, err := netsim.NewUDPTransport(hostAddr, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	hostID, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Transport: hostTr, Identity: hostID})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := h.Associate(snAddr); err != nil {
		t.Fatalf("associate over UDP: %v", err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if err := conn.Send(nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-conn.Receive():
			if len(msg.Payload) != 1 || msg.Payload[0] != byte(i) {
				t.Fatalf("payload %v", msg.Payload)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("echo %d over UDP timed out", i)
		}
	}
}

// §3.2's optimization: with direct-connect enabled, inter-edomain transit
// goes straight to the destination SN, skipping the gateway pipes.
func TestDirectConnectOptimizationEndToEnd(t *testing.T) {
	topo := New()
	defer topo.Close()
	setup := func(node *sn.SN, ed *Edomain) error {
		return node.Register(echo.New())
	}
	edA, err := topo.AddEdomain("ed-a", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	edB, err := topo.AddEdomain("ed-b", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	topo.Fabric.SetDirectConnect(true)

	// Non-gateway SN in ed-a routes transit straight to the non-gateway
	// destination SN in ed-b.
	src := edA.SNs[1]
	dst := edB.SNs[1]
	next, err := topo.Fabric.NextHop(src.Addr(), dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if next != dst.Addr() {
		t.Fatalf("direct-connect next hop %s, want %s", next, dst.Addr())
	}
	// And the pipe comes up on demand.
	if err := src.Connect(dst.Addr()); err != nil {
		t.Fatal(err)
	}
	if !src.Pipes().HasPeer(dst.Addr()) {
		t.Fatal("on-demand direct pipe not established")
	}
	// Gateways saw none of this.
	if edA.Gateway().Telemetry().Snapshot().Value("sn_rx_packets_total") != 0 {
		t.Fatal("gateway carried traffic despite direct connect")
	}
}
