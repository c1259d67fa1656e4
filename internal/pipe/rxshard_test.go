package pipe

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// engineGoroutines counts the goroutines that are running a method of eng.
func engineGoroutines(eng *Engine) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	frame := regexp.MustCompile(`pipe\.\(\*Engine\)\.\w+\(` + regexp.QuoteMeta(fmt.Sprintf("%p", eng)))
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if frame.MatchString(g) {
			count++
		}
	}
	return count
}

// TestEngineOwnsItsWorkersOnly: each built-in transport queues a datagram on
// the RX worker that owns its pipe, so an engine with n workers runs n
// receive goroutines — none between the transport and its workers — and
// none once it is closed.
func TestEngineOwnsItsWorkersOnly(t *testing.T) {
	const workers = 3
	for _, tc := range []struct {
		name string
		make func(*testing.T) EngineTransport
	}{
		{"sim", func(t *testing.T) EngineTransport {
			tr, err := netsim.NewNetwork().Attach(wire.MustAddr("fd00::1"))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"mux", func(*testing.T) EngineTransport { return netsim.NewNetwork().NewMux(0) }},
		{"udp", func(t *testing.T) EngineTransport {
			tr, err := netsim.NewUDPTransport(wire.MustAddr("fd00::1"), "127.0.0.1:0", netsim.NewUDPDirectory())
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{Transport: tc.make(t), RxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.RxWorkers(); got != workers {
				t.Fatalf("RxWorkers() = %d, want %d", got, workers)
			}
			// Let every goroutine the engine started get going, then count.
			deadline := time.Now().Add(2 * time.Second)
			for engineGoroutines(eng) < workers && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			if got := engineGoroutines(eng); got != workers {
				t.Errorf("an engine with %d RX workers runs %d goroutines, want %d", workers, got, workers)
			}
			eng.Close()
			deadline = time.Now().Add(2 * time.Second)
			for engineGoroutines(eng) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d engine goroutines outlived Close", engineGoroutines(eng))
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestUndecodableHeaderIsCountedMalformed: a header sealed on a live pipe
// authenticates, but one that does not decode as an ILP header never reaches
// the handler; it is counted as malformed, and not as a packet the pipe
// received.
func TestUndecodableHeaderIsCountedMalformed(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::a")
	b := newNode(t, net, "fd00::b")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	if err := a.mgr.SendHeaderBytes(b.addr, []byte{0xff}, []byte("undecodable")); err != nil {
		t.Fatal(err)
	}
	// One pipe, one worker, arrival order: once the next packet is handled,
	// the undecodable one has been too.
	if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("after")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-b.rx:
		if string(r.payload) != "after" {
			t.Fatalf("handler got %q first", r.payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the good packet never arrived")
	}
	if v := b.mgr.Telemetry().Snapshot().Value("engine_rx_malformed_total"); v != 1 {
		t.Errorf("engine_rx_malformed_total = %v, want 1", v)
	}
	if peers := b.mgr.Peers(); len(peers) != 1 || peers[0].RxPackets != 1 {
		t.Errorf("the pipe counts %+v received, want the one packet that decoded", peers)
	}
}
