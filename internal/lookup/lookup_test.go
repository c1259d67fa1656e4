package lookup

import (
	"errors"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/wire"
)

func signer(t *testing.T) cryptutil.SigningKeypair {
	t.Helper()
	kp, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestRegisterAndResolveAddress(t *testing.T) {
	s := New()
	owner := signer(t)
	addr := wire.MustAddr("fd00::1")
	sns := []wire.Addr{wire.MustAddr("fd00::100"), wire.MustAddr("fd00::200")}
	rec := AddrRecord{Addr: addr, Owner: owner.Public, SNs: sns}
	if err := s.RegisterAddress(rec, SignAddrRecord(owner, addr, sns)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ResolveAddress(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SNs) != 2 || got.SNs[0] != sns[0] {
		t.Fatalf("resolved %+v", got)
	}
	if _, err := s.ResolveAddress(wire.MustAddr("fd00::9")); err != ErrUnknownAddress {
		t.Fatalf("err = %v", err)
	}
}

// TestResolveIsAllocationAndLockFree pins ResolveAddress's contract: a hit
// in the folded base, a hit in the delta of writes since the last fold,
// and a miss each cost no allocation, and none of them waits on the
// writers' mutex.
func TestResolveIsAllocationAndLockFree(t *testing.T) {
	s := New()
	owner := signer(t)
	sns := []wire.Addr{wire.MustAddr("fc00::1")}
	folded, pending, unknown := benchAddr(1), benchAddr(2), benchAddr(3)
	s.RestoreRecords([]AddrRecord{{Addr: folded, Owner: owner.Public, SNs: sns}})
	rec := AddrRecord{Addr: pending, Owner: owner.Public, SNs: sns}
	if err := s.RegisterAddress(rec, SignAddrRecord(owner, pending, sns)); err != nil {
		t.Fatal(err)
	}
	if _, inBase := s.addrs.Load().base[pending]; inBase || s.deltaLen != 1 {
		t.Fatalf("the second record was folded (delta %d): no delta to probe", s.deltaLen)
	}
	cases := []struct {
		name string
		addr wire.Addr
		hit  bool
	}{
		{"folded hit", folded, true},
		{"pending hit", pending, true},
		{"miss", unknown, false},
	}
	resolve := func(a wire.Addr, hit bool) bool {
		got, err := s.ResolveAddress(a)
		if hit {
			return err == nil && got.Addr == a
		}
		return errors.Is(err, ErrUnknownAddress)
	}
	for _, c := range cases {
		ok := true
		allocs := testing.AllocsPerRun(1000, func() { ok = resolve(c.addr, c.hit) && ok })
		if !ok {
			t.Fatalf("%s: wrong result", c.name)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per resolve, want 0", c.name, allocs)
		}
	}

	// Hold the writers' mutex: a resolve that takes it returns only after
	// the unlock. The bounded wait turns that into a failure instead of a
	// hung test; the buffer lets the resolver finish either way.
	s.mu.Lock()
	done := make(chan bool, 1)
	go func() {
		ok := true
		for _, c := range cases {
			ok = resolve(c.addr, c.hit) && ok
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("wrong result while the writers' mutex is held")
		}
	case <-time.After(5 * time.Second):
		t.Error("ResolveAddress waits on the writers' mutex")
	}
	s.mu.Unlock()
}

func TestRegisterAddressBadSignature(t *testing.T) {
	s := New()
	owner := signer(t)
	other := signer(t)
	addr := wire.MustAddr("fd00::1")
	rec := AddrRecord{Addr: addr, Owner: owner.Public}
	if err := s.RegisterAddress(rec, SignAddrRecord(other, addr, nil)); err != ErrBadSignature {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestAddressHijackPrevented(t *testing.T) {
	s := New()
	owner, attacker := signer(t), signer(t)
	addr := wire.MustAddr("fd00::1")
	if err := s.RegisterAddress(AddrRecord{Addr: addr, Owner: owner.Public}, SignAddrRecord(owner, addr, nil)); err != nil {
		t.Fatal(err)
	}
	err := s.RegisterAddress(AddrRecord{Addr: addr, Owner: attacker.Public}, SignAddrRecord(attacker, addr, nil))
	if err == nil {
		t.Fatal("address takeover by different key succeeded")
	}
	// The owner can update its own record (e.g. new SNs).
	newSNs := []wire.Addr{wire.MustAddr("fd00::300")}
	if err := s.RegisterAddress(AddrRecord{Addr: addr, Owner: owner.Public, SNs: newSNs}, SignAddrRecord(owner, addr, newSNs)); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLifecycle(t *testing.T) {
	s := New()
	owner := signer(t)
	if err := s.CreateGroup("news", owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGroup("news", owner.Public); err == nil {
		t.Fatal("duplicate group creation succeeded")
	}
	pub, err := s.GroupOwner("news")
	if err != nil || !pub.Equal(owner.Public) {
		t.Fatalf("owner %v err %v", pub, err)
	}
	if _, err := s.GroupOwner("ghost"); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedGroupRequiresAuthorization(t *testing.T) {
	s := New()
	owner, member, stranger := signer(t), signer(t), signer(t)
	if err := s.CreateGroup("vip", owner.Public); err != nil {
		t.Fatal(err)
	}
	auth := SignJoinAuthorization(owner, "vip", member.Public)
	if err := s.ValidateJoin("vip", member.Public, auth); err != nil {
		t.Fatalf("authorized join rejected: %v", err)
	}
	if err := s.ValidateJoin("vip", stranger.Public, auth); err != ErrNotAuthorized {
		t.Fatalf("stranger with foreign auth: err = %v", err)
	}
	if err := s.ValidateJoin("vip", member.Public, nil); err != ErrNotAuthorized {
		t.Fatalf("missing auth: err = %v", err)
	}
}

func TestOpenGroupAdmitsAll(t *testing.T) {
	s := New()
	owner, member := signer(t), signer(t)
	if err := s.CreateGroup("pub", owner.Public); err != nil {
		t.Fatal(err)
	}
	// Before the open statement, joins need auth.
	if err := s.ValidateJoin("pub", member.Public, nil); err != ErrNotAuthorized {
		t.Fatalf("err = %v", err)
	}
	// A forged open statement is rejected.
	forger := signer(t)
	if err := s.PostOpenStatement("pub", SignOpenStatement(forger, "pub")); err != ErrBadSignature {
		t.Fatalf("forged open statement err = %v", err)
	}
	if err := s.PostOpenStatement("pub", SignOpenStatement(owner, "pub")); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateJoin("pub", member.Public, nil); err != nil {
		t.Fatalf("open join rejected: %v", err)
	}
}

func TestMemberEdomainTracking(t *testing.T) {
	s := New()
	owner := signer(t)
	if err := s.CreateGroup("g", owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := s.JoinGroupEdomain("g", "ed-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.JoinGroupEdomain("g", "ed-b"); err != nil {
		t.Fatal(err)
	}
	// Idempotent join.
	if err := s.JoinGroupEdomain("g", "ed-a"); err != nil {
		t.Fatal(err)
	}
	members, err := s.MemberEdomains("g")
	if err != nil || len(members) != 2 {
		t.Fatalf("members %v err %v", members, err)
	}
	if err := s.LeaveGroupEdomain("g", "ed-a"); err != nil {
		t.Fatal(err)
	}
	members, _ = s.MemberEdomains("g")
	if len(members) != 1 || members[0] != "ed-b" {
		t.Fatalf("members %v", members)
	}
}

func TestSenderRegistrationAndWatch(t *testing.T) {
	s := New()
	owner := signer(t)
	if err := s.CreateGroup("g", owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := s.JoinGroupEdomain("g", "ed-a"); err != nil {
		t.Fatal(err)
	}
	members, events, cancel, err := s.RegisterSenderEdomain("g", "ed-s")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(members) != 1 || members[0] != "ed-a" {
		t.Fatalf("initial members %v", members)
	}
	if err := s.JoinGroupEdomain("g", "ed-b"); err != nil {
		t.Fatal(err)
	}
	ev := <-events
	if ev.Edomain != "ed-b" || !ev.Joined {
		t.Fatalf("event %+v", ev)
	}
	if err := s.LeaveGroupEdomain("g", "ed-b"); err != nil {
		t.Fatal(err)
	}
	ev = <-events
	if ev.Edomain != "ed-b" || ev.Joined {
		t.Fatalf("event %+v", ev)
	}
	senders, err := s.SenderEdomains("g")
	if err != nil || len(senders) != 1 || senders[0] != "ed-s" {
		t.Fatalf("senders %v err %v", senders, err)
	}
	s.UnregisterSenderEdomain("g", "ed-s")
	senders, _ = s.SenderEdomains("g")
	if len(senders) != 0 {
		t.Fatalf("senders after unregister %v", senders)
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	s := New()
	owner := signer(t)
	if err := s.CreateGroup("g", owner.Public); err != nil {
		t.Fatal(err)
	}
	_, events, cancel, err := s.RegisterSenderEdomain("g", "ed-s")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	cancel() // double cancel safe
	if _, ok := <-events; ok {
		t.Fatal("events channel not closed after cancel")
	}
	// Further membership changes don't panic.
	if err := s.JoinGroupEdomain("g", "ed-x"); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownGroupOperations(t *testing.T) {
	s := New()
	if err := s.JoinGroupEdomain("nope", "e"); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
	if err := s.LeaveGroupEdomain("nope", "e"); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
	if _, _, _, err := s.RegisterSenderEdomain("nope", "e"); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
	if err := s.ValidateJoin("nope", nil, nil); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
	if err := s.PostOpenStatement("nope", nil); err != ErrUnknownGroup {
		t.Fatalf("err = %v", err)
	}
}
