package ordered

import (
	"sync"
	"testing"
	"time"

	"interedge/internal/lab"
	"interedge/internal/wire"
)

// world: two SNs with deliberately skewed GPS clocks.
func newWorld(t *testing.T, skews []time.Duration, window time.Duration) (*lab.Topology, *lab.Edomain, []*Module) {
	t.Helper()
	topo := lab.New()
	ed, err := topo.AddEdomain("ed-a", len(skews), nil)
	if err != nil {
		t.Fatal(err)
	}
	var mods []*Module
	for i, node := range ed.SNs {
		m := New(NewGPS(skews[i]), window)
		if err := node.Register(m); err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mods
}

type recorder struct {
	mu   sync.Mutex
	recv []Delivery
	ch   chan Delivery
}

func newRecorder() *recorder { return &recorder{ch: make(chan Delivery, 256)} }

func (r *recorder) handler(channel string, d Delivery) {
	r.mu.Lock()
	r.recv = append(r.recv, d)
	r.mu.Unlock()
	r.ch <- d
}

func (r *recorder) deliveries() []Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Delivery(nil), r.recv...)
}

func TestTimestampOrderedDelivery(t *testing.T) {
	topo, ed, _ := newWorld(t, []time.Duration{0, 0}, 60*time.Millisecond)
	sub, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	subC := NewClient(sub)
	rec := newRecorder()
	if err := subC.Subscribe("ch", rec.handler); err != nil {
		t.Fatal(err)
	}
	// Two senders on different SNs; sender 2's SN must know where
	// subscribers live.
	s1, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := NewClient(s1), NewClient(s2)
	if err := c1.AddPeer("ch", []wire.Addr{ed.SNs[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddPeer("ch", []wire.Addr{ed.SNs[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	// Interleave submissions from both SNs.
	for i := 0; i < 5; i++ {
		if err := c1.Submit("ch", []byte{1, byte(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := c2.Submit("ch", []byte{2, byte(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Await all 10.
	deadline := time.After(5 * time.Second)
	for n := 0; n < 10; n++ {
		select {
		case <-rec.ch:
		case <-deadline:
			t.Fatalf("only %d/10 delivered", n)
		}
	}
	// On-time deliveries must be nondecreasing in timestamp.
	ds := rec.deliveries()
	var last time.Time
	for i, d := range ds {
		if d.Late {
			continue
		}
		if d.Timestamp.Before(last) {
			t.Fatalf("delivery %d out of order: %v < %v", i, d.Timestamp, last)
		}
		last = d.Timestamp
	}
}

// Skewed ingress clocks reorder wall-clock submission order — the service
// orders by GPS timestamps, which is exactly its contract.
func TestSkewedClocksStillOrderedByStamp(t *testing.T) {
	topo, ed, _ := newWorld(t, []time.Duration{0, 30 * time.Millisecond}, 80*time.Millisecond)
	sub, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	subC := NewClient(sub)
	rec := newRecorder()
	if err := subC.Subscribe("ch", rec.handler); err != nil {
		t.Fatal(err)
	}
	s2, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(s2)
	if err := c2.AddPeer("ch", []wire.Addr{ed.SNs[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	s1, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewClient(s1)
	if err := c1.AddPeer("ch", []wire.Addr{ed.SNs[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	// s2 submits FIRST but its SN stamps +30ms in the future; s1 submits
	// second with an unskewed stamp. Ordered delivery puts s1 first.
	if err := c2.Submit("ch", []byte("second-by-stamp")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := c1.Submit("ch", []byte("first-by-stamp")); err != nil {
		t.Fatal(err)
	}
	var got []string
	deadline := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case d := <-rec.ch:
			got = append(got, string(d.Payload))
		case <-deadline:
			t.Fatalf("only %d/2 delivered", len(got))
		}
	}
	if got[0] != "first-by-stamp" || got[1] != "second-by-stamp" {
		t.Fatalf("order %v", got)
	}
}

// A message arriving after its window closed is delivered late-marked,
// not dropped (no atomicity, §6.2).
func TestLateMessageMarkedNotDropped(t *testing.T) {
	topo, ed, mods := newWorld(t, []time.Duration{0}, 30*time.Millisecond)
	sub, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	subC := NewClient(sub)
	rec := newRecorder()
	if err := subC.Subscribe("ch", rec.handler); err != nil {
		t.Fatal(err)
	}
	s, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(s)
	if err := c.AddPeer("ch", []wire.Addr{ed.SNs[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	// Normal message establishes lastOut.
	if err := c.Submit("ch", []byte("on-time")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rec.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("on-time message never delivered")
	}
	// Inject a message stamped in the past directly into the buffer
	// (simulating a long-delayed stamped packet from a far SN).
	mods[0].bufferStamped(time.Now().Add(-time.Second), "ch", []byte("straggler"), 1)
	select {
	case d := <-rec.ch:
		if string(d.Payload) != "straggler" {
			t.Fatalf("payload %q", d.Payload)
		}
		if !d.Late {
			t.Fatal("straggler not marked late")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler dropped")
	}
}

// An add_peer naming something that is not an address is refused with an
// error, and the SN that received it keeps serving.
func TestMalformedControlAddPeer(t *testing.T) {
	topo, ed, _ := newWorld(t, []time.Duration{0}, 60*time.Millisecond)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.InvokeFirstHop(wire.SvcOrdered, "add_peer", subscribeArgs{Channel: "ch", Peers: []string{"not-an-addr"}}); err == nil {
		t.Fatal("add_peer with a malformed address succeeded")
	}
	if _, err := h.InvokeFirstHop(wire.SvcControl, "health", nil); err != nil {
		t.Fatalf("SN stopped answering after a malformed add_peer: %v", err)
	}
}
