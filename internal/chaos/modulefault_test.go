package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Misbehaving-module fault suite: one SN hosts a healthy echo module next
// to a panic storm, an IPC crash loop, a hang, and an error storm — all at
// once, with substrate faults live on the access link. The containment
// contract under test:
//
//   - the SN process survives every module fault class;
//   - the healthy module and the fast path keep forwarding throughout;
//   - each faulty module's breaker trips, and the ones that heal recover
//     through a half-open probe;
//   - packets shed by the error storm pass through to its degraded-forward
//     fallback instead of vanishing;
//   - teardown leaks no goroutines and heap growth stays bounded.

// panicStormMod panics on every packet (chan transport: recovered in
// process).
type panicStormMod struct{}

func (panicStormMod) Service() wire.ServiceID { return wire.SvcNull }
func (panicStormMod) Name() string            { return "panic-storm" }
func (panicStormMod) Version() string         { return "1" }
func (panicStormMod) HandlePacket(sn.Env, *sn.Packet) (sn.Decision, error) {
	panic("panic storm")
}

// crashLoopMod panics on every packet; registered over IPC, each panic
// kills the module server connection, so the module crash-loops through
// redials.
type crashLoopMod struct{}

func (crashLoopMod) Service() wire.ServiceID { return wire.SvcQoS }
func (crashLoopMod) Name() string            { return "crash-loop" }
func (crashLoopMod) Version() string         { return "1" }
func (crashLoopMod) HandlePacket(sn.Env, *sn.Packet) (sn.Decision, error) {
	panic("crash loop")
}

// hangMod blocks every invocation until healed, then echoes.
type hangMod struct {
	healed  atomic.Bool
	release chan struct{}
}

func newHangMod() *hangMod { return &hangMod{release: make(chan struct{})} }

func (m *hangMod) Service() wire.ServiceID { return wire.SvcVPN }
func (m *hangMod) Name() string            { return "hang" }
func (m *hangMod) Version() string         { return "1" }
func (m *hangMod) HandlePacket(_ sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if !m.healed.Load() {
		<-m.release
	}
	return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src}}}, nil
}
func (m *hangMod) heal() {
	if m.healed.CompareAndSwap(false, true) {
		close(m.release)
	}
}

// errorStormMod fails every packet until healed, then echoes.
type errorStormMod struct{ healed atomic.Bool }

func (m *errorStormMod) Service() wire.ServiceID { return wire.SvcMixnet }
func (m *errorStormMod) Name() string            { return "error-storm" }
func (m *errorStormMod) Version() string         { return "1" }
func (m *errorStormMod) HandlePacket(_ sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if !m.healed.Load() {
		return sn.Decision{}, fmt.Errorf("error storm")
	}
	return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src}}}, nil
}

// svcHealth fetches one service's containment snapshot.
func svcHealth(t *testing.T, node *sn.SN, svc wire.ServiceID) sn.ModuleHealth {
	t.Helper()
	for _, h := range node.ModuleHealth() {
		if h.Service == svc {
			return h
		}
	}
	t.Fatalf("no health entry for %v", svc)
	return sn.ModuleHealth{}
}

func TestModuleFaultContainmentChaos(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runModuleFaults(t, seed) })
	}
}

func runModuleFaults(t *testing.T, seed int64) {
	baseGoroutines := runtime.NumGoroutine()
	var baseMem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseMem)

	net := netsim.NewNetwork(netsim.WithSeed(seed))

	// The SN under test.
	tr, err := net.Attach(wire.MustAddr("fd00::5"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	node, err := sn.New(sn.Config{
		Transport:        tr,
		Identity:         id,
		HandshakeTimeout: 10 * time.Millisecond,
		HandshakeRetries: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// On failure, dump the node's telemetry registry — the per-module
	// sn_module_* instruments show which containment mechanism misfired.
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("telemetry fd00::5:\n%s", node.Telemetry().Snapshot())
		}
	})

	// A client host and a fallback next hop for degraded forwarding. Both
	// tally CRC-validated payloads by sequence number.
	type tally struct {
		mu        sync.Mutex
		delivered map[uint32]int
		bad       int
	}
	newTally := func() *tally { return &tally{delivered: make(map[uint32]int)} }
	record := func(tl *tally) pipe.PacketHandler {
		return func(_ pipe.Sender, _ wire.Addr, _ wire.ILPHeader, _, payload []byte) {
			seq, ok := checkPayload(payload)
			tl.mu.Lock()
			if !ok {
				tl.bad++
			} else {
				tl.delivered[seq]++
			}
			tl.mu.Unlock()
		}
	}
	clTally, fbTally := newTally(), newTally()
	client := newManager(t, net, "fd00::1", record(clTally), nil)
	fallback := newManager(t, net, "fd00::7", record(fbTally), nil)

	hang := newHangMod()
	errStorm := &errorStormMod{}
	healthy := echo.New()
	registrations := []struct {
		mod  sn.Module
		opts []sn.ModuleOption
	}{
		{healthy, nil},
		{panicStormMod{}, []sn.ModuleOption{
			sn.WithBreaker(4, 100*time.Millisecond)}},
		{crashLoopMod{}, []sn.ModuleOption{
			sn.WithTransport(sn.TransportIPC),
			sn.WithRestartBackoff(time.Millisecond, 8*time.Millisecond),
			sn.WithBreaker(3, 60*time.Millisecond)}},
		{hang, []sn.ModuleOption{
			sn.WithDeadline(15 * time.Millisecond),
			sn.WithBreaker(3, 150*time.Millisecond)}},
		{errStorm, []sn.ModuleOption{
			sn.WithBreaker(3, 150*time.Millisecond),
			sn.WithDegradedForward(fallback.LocalAddr())}},
	}
	for _, r := range registrations {
		if err := node.Register(r.mod, r.opts...); err != nil {
			t.Fatal(err)
		}
	}

	if err := client.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// Fast-path rule: conn 999 forwards straight back to the client from
	// the decision cache, module-free.
	node.Cache().Add(
		wire.FlowKey{Src: client.LocalAddr(), Service: wire.SvcEcho, Conn: 999},
		cache.Action{Forward: []wire.Addr{client.LocalAddr()}})

	// Substrate chaos on the access link, switched on after the handshake
	// (handshake-under-faults is the pipe suite's job).
	net.SetFaultsBoth(client.LocalAddr(), node.Addr(), netsim.FaultProfile{
		ReorderRate:     0.1,
		ReorderDelayMin: 500 * time.Microsecond,
		ReorderDelayMax: 2 * time.Millisecond,
		DuplicateRate:   0.1,
		CorruptRate:     0.05,
		JitterMax:       time.Millisecond,
	})

	send := func(svc wire.ServiceID, conn wire.ConnectionID, seq uint32) {
		// Sends may race substrate faults; losses are the test's business,
		// send errors are not expected.
		if err := client.Send(node.Addr(), &wire.ILPHeader{Service: svc, Conn: conn}, mkPayload(seq)); err != nil {
			t.Errorf("send %v: %v", svc, err)
		}
	}

	// Phase 1 — every fault class fires at once, interleaved with healthy
	// and fast-path traffic. Payload tags name the originating stream.
	const sends = 120
	for i := uint32(0); i < sends; i++ {
		send(wire.SvcEcho, 1, 0xE<<24|i)
		send(wire.SvcEcho, 999, 0xF<<24|i)
		send(wire.SvcNull, 1, 0xA<<24|i)
		send(wire.SvcQoS, 1, 0xB<<24|i)
		send(wire.SvcVPN, 1, 0xC<<24|i)
		send(wire.SvcMixnet, 1, 0xD<<24|i)
		time.Sleep(500 * time.Microsecond)
	}

	countTag := func(tl *tally, tag uint32) int {
		tl.mu.Lock()
		defer tl.mu.Unlock()
		n := 0
		for seq := range tl.delivered {
			if seq>>24 == tag {
				n++
			}
		}
		return n
	}

	// The SN survived and the healthy module plus the fast path kept
	// forwarding through the storm (corruption legitimately drops a few).
	waitCond(t, 10*time.Second, "healthy echo deliveries", func() bool {
		return countTag(clTally, 0xE) >= sends*6/10
	})
	waitCond(t, 10*time.Second, "fast-path deliveries", func() bool {
		return countTag(clTally, 0xF) >= sends*6/10
	})
	if c := node.Telemetry().Snapshot(); c.Value("sn_fastpath_hits_total") == 0 {
		t.Fatal("fast path never hit")
	}

	// Each fault class was contained and tripped its breaker.
	waitCond(t, 10*time.Second, "panic storm contained", func() bool {
		h := svcHealth(t, node, wire.SvcNull)
		return h.Panics >= 4 && h.BreakerTrips >= 1
	})
	waitCond(t, 10*time.Second, "hang timed out and tripped", func() bool {
		h := svcHealth(t, node, wire.SvcVPN)
		return h.Timeouts >= 3 && h.BreakerTrips >= 1
	})
	waitCond(t, 10*time.Second, "error storm tripped and shed to fallback", func() bool {
		h := svcHealth(t, node, wire.SvcMixnet)
		return h.BreakerTrips >= 1 && h.Shed >= 1 && countTag(fbTally, 0xD) >= 1
	})
	// The crash loop keeps crashing through restarts: half-open probes
	// reach a freshly redialed server, crash it again, and re-trip.
	waitCond(t, 10*time.Second, "IPC crash loop restarts", func() bool {
		send(wire.SvcQoS, 1, 0xB<<24|0x00FFFF00)
		h := svcHealth(t, node, wire.SvcQoS)
		return h.Panics >= 2 && h.Restarts >= 2 && h.BreakerTrips >= 2
	})

	// Phase 2 — heal the hang and the error storm; their breakers must
	// recover through a half-open probe and traffic must flow again.
	hang.heal()
	errStorm.healed.Store(true)
	var probe atomic.Uint32
	waitCond(t, 10*time.Second, "hang module breaker recovery", func() bool {
		send(wire.SvcVPN, 1, 0xC<<24|0x00800000|probe.Add(1))
		h := svcHealth(t, node, wire.SvcVPN)
		return h.BreakerRecoveries >= 1 && h.Handled >= 1
	})
	waitCond(t, 10*time.Second, "error storm breaker recovery", func() bool {
		send(wire.SvcMixnet, 1, 0xD<<24|0x00800000|probe.Add(1))
		h := svcHealth(t, node, wire.SvcMixnet)
		return h.BreakerRecoveries >= 1 && h.Handled >= 1
	})
	// Keep probing while waiting: substrate faults may corrupt any single
	// response, so one handled packet does not guarantee one delivery.
	waitCond(t, 10*time.Second, "post-recovery hang-module delivery", func() bool {
		send(wire.SvcVPN, 1, 0xC<<24|0x00800000|probe.Add(1))
		return countTag(clTally, 0xC) >= 1
	})
	waitCond(t, 10*time.Second, "post-recovery error-module delivery", func() bool {
		send(wire.SvcMixnet, 1, 0xD<<24|0x00800000|probe.Add(1))
		return countTag(clTally, 0xD) >= 1
	})

	// Integrity held throughout: no corrupted payload reached a handler,
	// no sequence number was delivered twice.
	for name, tl := range map[string]*tally{"client": clTally, "fallback": fbTally} {
		tl.mu.Lock()
		if tl.bad != 0 {
			t.Errorf("%s: %d corrupted payloads reached the handler", name, tl.bad)
		}
		for seq, n := range tl.delivered {
			if n != 1 {
				t.Errorf("%s: seq %#x delivered %d times", name, seq, n)
			}
		}
		tl.mu.Unlock()
	}
	if c := node.Telemetry().Snapshot(); c.Value("sn_module_errors_total") == 0 {
		t.Error("no module errors recorded despite the fault storm")
	}

	// Teardown: the whole storm — abandoned hung invocations, crash-loop
	// redialers, shed queues — must drain within the leak bounds.
	node.Close()
	client.Close()
	fallback.Close()
	waitCond(t, 5*time.Second, "goroutines drained after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+10
	})
	var endMem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&endMem)
	const heapSlack = 64 << 20
	if endMem.HeapAlloc > baseMem.HeapAlloc+heapSlack {
		t.Errorf("heap grew from %d to %d bytes across the fault storm", baseMem.HeapAlloc, endMem.HeapAlloc)
	}
}
