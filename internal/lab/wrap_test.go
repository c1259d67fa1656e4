package lab

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// sendTap is a transport wrapper that sees sends and forwards nothing but
// the Transport methods, like the benchmark's and the soak's taps.
type sendTap struct {
	netsim.Transport
	sends *atomic.Int64
}

func (s sendTap) Send(dg wire.Datagram) error {
	s.sends.Add(1)
	return s.Transport.Send(dg)
}

// TestWrappedNodesKeepTheirReceiveShards: a node built under
// WithTransportWrap receives as an unwrapped one does, on one transport
// queue per RX worker — GOMAXPROCS of them by default — while its sends go
// through the wrapper.
func TestWrappedNodesKeepTheirReceiveShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	var sends atomic.Int64
	topo := New(WithTransportWrap(func(inner netsim.Transport) netsim.Transport {
		return sendTap{Transport: inner, sends: &sends}
	}))
	defer topo.Close()
	ed, err := topo.AddEdomain("ed-a", 1, func(node *sn.SN, _ *Edomain) error { return node.Register(echo.New()) })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ed.SNs[0].Pipes().RxWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("a wrapped SN runs %d RX workers, want GOMAXPROCS = %d", got, want)
	}
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := sends.Load()
	if err := conn.Send(nil, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "ping" {
			t.Fatalf("echo returned %q", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("echo never came back through the wrapped transports")
	}
	if sends.Load() == before {
		t.Fatal("no send went through the wrapper")
	}
}
