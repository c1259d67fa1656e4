package groupfan

import (
	"crypto/ed25519"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/edomain"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// fanModule is a minimal multipoint service on SvcEcho: a send is spread
// to the group's member SNs, and a spread copy is reported on seen.
type fanModule struct {
	*Groups
	seen chan wire.Addr // SNs that received spread copies report here
}

func (m *fanModule) Service() wire.ServiceID { return wire.SvcEcho }
func (m *fanModule) Name() string            { return "fan-test" }
func (m *fanModule) Version() string         { return "1" }
func (m *fanModule) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	kind, group, err := ParseHeader(pkt.Hdr.Data)
	if err != nil {
		return sn.Decision{}, err
	}
	if kind == KindSend {
		m.Spread(env, group, pkt.Hdr.Conn, pkt.Payload, true)
		return sn.Decision{}, nil
	}
	m.seen <- env.LocalAddr()
	return sn.Decision{}, nil
}

func TestSpreadReachesIntraAndInterMembers(t *testing.T) {
	topo := lab.New()
	defer topo.Close()
	seen := make(chan wire.Addr, 16)
	setup := func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(&fanModule{Groups: New(wire.SvcEcho, ed.Core, topo.Fabric, topo.Global), seen: seen})
	}
	edA, err := topo.AddEdomain("ed-a", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	edB, err := topo.AddEdomain("ed-b", 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}

	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Global.CreateGroup("g", owner.Public); err != nil {
		t.Fatal(err)
	}
	// Members: SN a1 (second SN of ed-a) and the single SN of ed-b.
	h1 := wire.MustAddr("fd00::aaa1")
	h2 := wire.MustAddr("fd00::aaa2")
	if err := edA.Core.JoinGroup("g", edA.SNs[1].Addr(), h1); err != nil {
		t.Fatal(err)
	}
	if err := edB.Core.JoinGroup("g", edB.SNs[0].Addr(), h2); err != nil {
		t.Fatal(err)
	}
	// Sender SN: gateway of ed-a; registering populates the remote mirror.
	if _, _, cancel, err := edA.Core.RegisterSender("g", edA.SNs[0].Addr()); err != nil {
		t.Fatal(err)
	} else {
		defer cancel()
	}

	// Inject an origin packet at ed-a's gateway.
	sender, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sender.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(HeaderData(KindSend, "g"), []byte("spread")); err != nil {
		t.Fatal(err)
	}
	want := map[wire.Addr]bool{edA.SNs[1].Addr(): false, edB.SNs[0].Addr(): false}
	deadline := time.After(3 * time.Second)
	for remaining := 2; remaining > 0; {
		select {
		case addr := <-seen:
			if done, ok := want[addr]; ok && !done {
				want[addr] = true
				remaining--
			}
		case <-deadline:
			t.Fatalf("spread incomplete: %v", want)
		}
	}
}

// stubEnv is the part of sn.Env the membership ops use: the SN's address
// and the verified identities of its pipe peers.
type stubEnv struct {
	sn.Env
	local wire.Addr
	ids   map[wire.Addr]ed25519.PublicKey
}

func (e stubEnv) LocalAddr() wire.Addr { return e.local }
func (e stubEnv) PeerIdentity(a wire.Addr) (ed25519.PublicKey, bool) {
	k, ok := e.ids[a]
	return k, ok
}

// newTestGroups builds the group state of one SN in a one-SN edomain, with
// an open group "g" and two hosts whose identities the SN has verified.
func newTestGroups(t *testing.T) (*Groups, *edomain.Core, stubEnv, [2]wire.Addr) {
	t.Helper()
	global := lookup.New()
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	if err := global.CreateGroup("g", owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := global.PostOpenStatement("g", lookup.SignOpenStatement(owner, "g")); err != nil {
		t.Fatal(err)
	}
	core := edomain.New("ed-a", global)
	t.Cleanup(core.Close)
	env := stubEnv{local: wire.MustAddr("fd00::100"), ids: map[wire.Addr]ed25519.PublicKey{}}
	core.RegisterSN(env.local)
	hosts := [2]wire.Addr{wire.MustAddr("fd00::1"), wire.MustAddr("fd00::2")}
	for _, h := range hosts {
		kp, err := cryptutil.NewSigningKeypair()
		if err != nil {
			t.Fatal(err)
		}
		env.ids[h] = kp.Public
	}
	return New(wire.SvcMulticast, core, nil, global), core, env, hosts
}

func TestLeaveOfLastMemberDropsSet(t *testing.T) {
	g, core, env, hosts := newTestGroups(t)
	for _, h := range hosts {
		if err := g.Join(env, h, Args{Group: "g"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Members("g"); !slices.Equal(got, hosts[:]) {
		t.Fatalf("Members = %v, want %v", got, hosts)
	}
	if err := g.Leave(env, hosts[0], "g"); err != nil {
		t.Fatal(err)
	}
	if got := g.Members("g"); !slices.Equal(got, hosts[1:]) {
		t.Fatalf("Members after one leave = %v, want %v", got, hosts[1:])
	}
	if err := g.Leave(env, hosts[1], "g"); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	_, kept := g.members["g"]
	g.mu.Unlock()
	if kept {
		t.Fatal("the emptied member set was kept")
	}
	if sns := core.MemberSNs("g"); len(sns) != 0 {
		t.Fatalf("core still lists member SNs %v", sns)
	}
}

func TestConcurrentFirstSendersRegisterSNOnce(t *testing.T) {
	g, _, env, hosts := newTestGroups(t)
	var registered, cancelled atomic.Int32
	orig := coreRegisterSender
	t.Cleanup(func() { coreRegisterSender = orig })
	coreRegisterSender = func(c *edomain.Core, group lookup.GroupID, snAddr wire.Addr) ([]wire.Addr, <-chan edomain.MemberEvent, func(), error) {
		registered.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the window for a second first sender
		members, events, cancel, err := orig(c, group, snAddr)
		return members, events, func() { cancelled.Add(1); cancel() }, err
	}
	var wg sync.WaitGroup
	for _, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.RegisterSender(env, h, "g"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := registered.Load(); n != 1 {
		t.Fatalf("%d SN-level registrations for one group, want 1", n)
	}
	for _, h := range hosts {
		if !g.IsSender("g", h) {
			t.Fatalf("%s is not a sender", h)
		}
	}
	g.UnregisterSender(hosts[0], "g")
	if g.IsSender("g", hosts[0]) || !g.IsSender("g", hosts[1]) {
		t.Fatal("UnregisterSender did not withdraw exactly its host")
	}
	if n := cancelled.Load(); n != 0 {
		t.Fatalf("%d cancels before Stop", n)
	}
	for i := 0; i < 2; i++ {
		if err := g.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	if n := cancelled.Load(); n != 1 {
		t.Fatalf("Stop cancelled the registration %d times, want 1", n)
	}
	if err := g.RegisterSender(env, hosts[0], "g"); !errors.Is(err, ErrStopped) {
		t.Fatalf("RegisterSender after Stop: %v, want ErrStopped", err)
	}
}
