package pipe

import (
	"errors"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

func waitRx(t *testing.T, n *node, want string) received {
	t.Helper()
	select {
	case got := <-n.rx:
		if string(got.payload) != want {
			t.Fatalf("payload %q, want %q", got.payload, want)
		}
		return got
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %q", want)
		panic("unreachable")
	}
}

// TestExportImportRebind walks the full handoff dance: SN A exports its
// established pipe with host H, SN B imports it, H rebinds to B, and
// traffic flows both ways on B without any fresh handshake on either side.
func TestExportImportRebind(t *testing.T) {
	net := netsim.NewNetwork()
	snA := newNode(t, net, "fd00::a")
	snB := newNode(t, net, "fd00::b")
	host := newNode(t, net, "fd00::1:1")

	if err := snA.mgr.Connect(host.addr); err != nil {
		t.Fatal(err)
	}
	// Traffic and a rotation first, so the handoff moves non-zero epochs.
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	if err := snA.mgr.Send(host.addr, &hdr, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, host, "pre")
	if err := snA.mgr.RotateAll(); err != nil {
		t.Fatal(err)
	}
	if err := host.mgr.Send(snA.addr, &hdr, []byte("up")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, snA, "up")

	state, err := snA.mgr.ExportPeer(host.addr)
	if err != nil {
		t.Fatal(err)
	}
	if state.Addr != host.addr || state.TxEpoch != 1 {
		t.Fatalf("exported state %+v, want host addr and TxEpoch 1", state)
	}
	baseAttempts := snB.mgr.Telemetry().Snapshot().Value("pipe_handshake_attempts_total")

	if err := snB.mgr.ImportPeer(state); err != nil {
		t.Fatal(err)
	}
	if !snB.mgr.HasPeer(host.addr) {
		t.Fatal("importer has no peer after ImportPeer")
	}
	// Host rebinds its end from A to B (what SvcPipeMove triggers).
	if err := host.mgr.RebindPeer(snA.addr, snB.addr); err != nil {
		t.Fatal(err)
	}
	if host.mgr.HasPeer(snA.addr) {
		t.Fatal("host still has a pipe to the drained SN")
	}

	// Both directions work on the moved pipe.
	if err := snB.mgr.Send(host.addr, &hdr, []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, host, "from-b")
	if err := host.mgr.Send(snB.addr, &hdr, []byte("to-b")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, snB, "to-b")

	if got := snB.mgr.Telemetry().Snapshot().Value("pipe_handshake_attempts_total"); got != baseAttempts {
		t.Fatalf("importer sent %v handshake attempts during handoff, want 0", got-baseAttempts)
	}
	id, ok := snB.mgr.PeerIdentity(host.addr)
	if !ok || !id.Equal(host.mgr.Identity().PublicKey()) {
		t.Fatal("imported pipe lost the host's verified identity")
	}
}

// TestImportPeerNeverClobbers pins the race-convergence rule: a concurrent
// full handshake beats an in-flight handoff, so an import against an
// existing peer must refuse and leave the established keys alone.
func TestImportPeerNeverClobbers(t *testing.T) {
	net := netsim.NewNetwork()
	snA := newNode(t, net, "fd00::a")
	snB := newNode(t, net, "fd00::b")
	host := newNode(t, net, "fd00::1:1")

	if err := snA.mgr.Connect(host.addr); err != nil {
		t.Fatal(err)
	}
	state, err := snA.mgr.ExportPeer(host.addr)
	if err != nil {
		t.Fatal(err)
	}
	// The host re-established against B on its own before the handoff
	// arrived (e.g. failover beat the drain).
	if err := snB.mgr.Connect(host.addr); err != nil {
		t.Fatal(err)
	}
	if err := snB.mgr.ImportPeer(state); !errors.Is(err, ErrPeerExists) {
		t.Fatalf("ImportPeer err=%v, want ErrPeerExists", err)
	}
	// The handshake-established pipe still works.
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	if err := snB.mgr.Send(host.addr, &hdr, []byte("live")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, host, "live")
}

// TestRebindPeerNeverClobbers: if the host already holds a pipe to the
// successor, the move notice must not replace it.
func TestRebindPeerNeverClobbers(t *testing.T) {
	net := netsim.NewNetwork()
	snA := newNode(t, net, "fd00::a")
	snB := newNode(t, net, "fd00::b")
	host := newNode(t, net, "fd00::1:1")

	if err := host.mgr.Connect(snA.addr); err != nil {
		t.Fatal(err)
	}
	if err := host.mgr.Connect(snB.addr); err != nil {
		t.Fatal(err)
	}
	if err := host.mgr.RebindPeer(snA.addr, snB.addr); !errors.Is(err, ErrPeerExists) {
		t.Fatalf("RebindPeer err=%v, want ErrPeerExists", err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 2}
	if err := host.mgr.Send(snB.addr, &hdr, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	waitRx(t, snB, "kept")
	if !host.mgr.HasPeer(snA.addr) {
		t.Fatal("refused rebind still removed the old peer")
	}
}

// TestExportPeerNoPipe pins the error for exporting a nonexistent pipe.
func TestExportPeerNoPipe(t *testing.T) {
	net := netsim.NewNetwork()
	snA := newNode(t, net, "fd00::a")
	if _, err := snA.mgr.ExportPeer(wire.MustAddr("fd00::dead")); !errors.Is(err, ErrNoPipe) {
		t.Fatalf("err=%v, want ErrNoPipe", err)
	}
	if err := snA.mgr.RebindPeer(wire.MustAddr("fd00::dead"), wire.MustAddr("fd00::beef")); !errors.Is(err, ErrNoPipe) {
		t.Fatalf("rebind err=%v, want ErrNoPipe", err)
	}
}
