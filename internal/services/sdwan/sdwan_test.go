package sdwan

import (
	"testing"
	"time"

	"interedge/internal/lab"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// world: a boundary SN running sdwan, plus two uplink SNs running echo
// (standing in for provider paths that reflect traffic back).
func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, *Module) {
	t.Helper()
	topo := lab.New()
	mod := New()
	ed, err := topo.AddEdomain("ed-a", 3, func(node *sn.SN, ed *lab.Edomain) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// SN 0: boundary (sdwan); SN 1, 2: uplinks (echo).
	if err := ed.SNs[0].Register(mod); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		if err := ed.SNs[i].Register(echo.New()); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mod
}

func configure(t *testing.T, topo *lab.Topology, ed *lab.Edomain) {
	t.Helper()
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	args := ConfigArgs{
		Uplinks: []wire.Addr{ed.SNs[1].Addr(), ed.SNs[2].Addr()},
		Policy: map[Class][]int{
			ClassInteractive: {0, 1}, // interactive prefers uplink 0
			ClassBulk:        {1, 0}, // bulk prefers uplink 1
		},
	}
	if _, err := OpConfigure.CallFirstHop(operator, args); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyRoutesClassesToPreferredUplinks(t *testing.T) {
	topo, ed, mod := newWorld(t)
	configure(t, topo, ed)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := wire.MustAddr("fd00::dead") // unused by echo uplinks

	connI, err := client.NewConn(wire.SvcSDWAN)
	if err != nil {
		t.Fatal(err)
	}
	if err := connI.Send(HeaderData(ClassInteractive, dst), []byte("i")); err != nil {
		t.Fatal(err)
	}
	connB, err := client.NewConn(wire.SvcSDWAN)
	if err != nil {
		t.Fatal(err)
	}
	if err := connB.Send(HeaderData(ClassBulk, dst), []byte("b")); err != nil {
		t.Fatal(err)
	}
	keyI := wire.FlowKey{Src: client.Addr(), Service: wire.SvcSDWAN, Conn: connI.ID()}
	keyB := wire.FlowKey{Src: client.Addr(), Service: wire.SvcSDWAN, Conn: connB.ID()}
	deadline := time.Now().Add(3 * time.Second)
	for {
		uI, okI := mod.PinnedUplink(keyI)
		uB, okB := mod.PinnedUplink(keyB)
		if okI && okB {
			if uI != ed.SNs[1].Addr() {
				t.Fatalf("interactive pinned to %s, want uplink 0", uI)
			}
			if uB != ed.SNs[2].Addr() {
				t.Fatalf("bulk pinned to %s, want uplink 1", uB)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("flows never pinned")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFailoverOnUplinkDown(t *testing.T) {
	topo, ed, mod := newWorld(t)
	configure(t, topo, ed)
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := wire.MustAddr("fd00::dead")
	conn, err := client.NewConn(wire.SvcSDWAN)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(ClassInteractive, dst), []byte("1")); err != nil {
		t.Fatal(err)
	}
	key := wire.FlowKey{Src: client.Addr(), Service: wire.SvcSDWAN, Conn: conn.ID()}
	waitPinned(t, mod, key, ed.SNs[1].Addr())

	// Uplink 0 goes down; flow must repin to uplink 1 on the next packet.
	if _, err := OpSetHealth.CallFirstHop(operator, HealthArgs{Uplink: ed.SNs[1].Addr(), Up: false}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mod.PinnedUplink(key); ok {
		t.Fatal("flow still pinned to downed uplink")
	}
	if err := conn.Send(HeaderData(ClassInteractive, dst), []byte("2")); err != nil {
		t.Fatal(err)
	}
	waitPinned(t, mod, key, ed.SNs[2].Addr())
}

func waitPinned(t *testing.T, mod *Module, key wire.FlowKey, want wire.Addr) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if u, ok := mod.PinnedUplink(key); ok && u == want {
			return
		}
		if time.Now().After(deadline) {
			u, ok := mod.PinnedUplink(key)
			t.Fatalf("pinned to %v (ok=%v), want %s", u, ok, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAllUplinksDownErrors(t *testing.T) {
	topo, ed, _ := newWorld(t)
	configure(t, topo, ed)
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		if _, err := OpSetHealth.CallFirstHop(operator, HealthArgs{Uplink: ed.SNs[i].Addr(), Up: false}); err != nil {
			t.Fatal(err)
		}
	}
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.NewConn(wire.SvcSDWAN)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(ClassDefault, wire.MustAddr("fd00::1")), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no-healthy-uplink not surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConfigValidation(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpConfigure.CallFirstHop(h, ConfigArgs{Uplinks: []wire.Addr{{}}}); err == nil {
		t.Fatal("uplink with no address accepted")
	}
	if _, err := OpConfigure.CallFirstHop(h, ConfigArgs{
		Uplinks: []wire.Addr{ed.SNs[1].Addr()},
		Policy:  map[Class][]int{ClassInteractive: {5}},
	}); err == nil {
		t.Fatal("out-of-range uplink index accepted")
	}
}
