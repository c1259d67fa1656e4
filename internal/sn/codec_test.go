package sn

import (
	"bytes"
	"testing"
	"testing/quick"

	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

func TestPacketCodecRoundTrip(t *testing.T) {
	pkt := &Packet{
		Src:     wire.MustAddr("fd00::1"),
		Hdr:     wire.ILPHeader{Service: wire.SvcPubSub, Conn: 77, Data: []byte("topic")},
		Payload: []byte("payload bytes"),
	}
	enc, err := encodePacket(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != pkt.Src || got.Hdr.Service != pkt.Hdr.Service || got.Hdr.Conn != pkt.Hdr.Conn ||
		!bytes.Equal(got.Hdr.Data, pkt.Hdr.Data) || !bytes.Equal(got.Payload, pkt.Payload) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestPacketCodecEmpty(t *testing.T) {
	pkt := &Packet{Src: wire.MustAddr("fd00::2"), Hdr: wire.ILPHeader{Service: wire.SvcNull, Conn: 1}}
	enc, err := encodePacket(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 || len(got.Hdr.Data) != 0 {
		t.Fatalf("expected empty fields: %+v", got)
	}
}

func TestPacketCodecTruncated(t *testing.T) {
	pkt := &Packet{Src: wire.MustAddr("fd00::1"), Hdr: wire.ILPHeader{Service: 1, Conn: 2, Data: []byte("d")}, Payload: []byte("p")}
	enc, _ := encodePacket(nil, pkt)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodePacket(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func decisionsEqual(a, b *Decision) bool {
	if len(a.Forwards) != len(b.Forwards) || len(a.Rules) != len(b.Rules) || len(a.Invalidate) != len(b.Invalidate) {
		return false
	}
	for i := range a.Forwards {
		fa, fb := a.Forwards[i], b.Forwards[i]
		// A nil payload forwards the original; an empty one sends none.
		if fa.Dst != fb.Dst || (fa.Payload == nil) != (fb.Payload == nil) || !bytes.Equal(fa.Payload, fb.Payload) {
			return false
		}
		if (fa.RewriteHeader == nil) != (fb.RewriteHeader == nil) || !bytes.Equal(fa.RewriteHeader, fb.RewriteHeader) {
			return false
		}
		if (fa.Hdr == nil) != (fb.Hdr == nil) {
			return false
		}
		if fa.Hdr != nil {
			if fa.Hdr.Service != fb.Hdr.Service || fa.Hdr.Conn != fb.Hdr.Conn || !bytes.Equal(fa.Hdr.Data, fb.Hdr.Data) {
				return false
			}
		}
	}
	for i := range a.Rules {
		ra, rb := a.Rules[i], b.Rules[i]
		if ra.Key != rb.Key || ra.Action.Drop != rb.Action.Drop {
			return false
		}
		if len(ra.Action.Forward) != len(rb.Action.Forward) {
			return false
		}
		for j := range ra.Action.Forward {
			if ra.Action.Forward[j] != rb.Action.Forward[j] {
				return false
			}
		}
		if !bytes.Equal(ra.Action.RewriteHeader, rb.Action.RewriteHeader) || ra.Action.DependsOn != rb.Action.DependsOn {
			return false
		}
	}
	for i := range a.Invalidate {
		if a.Invalidate[i] != b.Invalidate[i] {
			return false
		}
	}
	return true
}

func TestDecisionCodecRoundTrip(t *testing.T) {
	d := &Decision{
		Forwards: []Forward{
			{Dst: wire.MustAddr("fd00::9")},
			{Dst: wire.MustAddr("fd00::a"), Hdr: &wire.ILPHeader{Service: wire.SvcEcho, Conn: 3, Data: []byte("x")}},
			{Dst: wire.MustAddr("fd00::b"), Payload: []byte("replaced")},
			{Dst: wire.MustAddr("fd00::c"), Payload: []byte{}},
			{Dst: wire.MustAddr("fd00::d"), RewriteHeader: []byte{4, 5, 6}, Payload: []byte("both")},
		},
		Rules: []Rule{
			{
				Key: wire.FlowKey{Src: wire.MustAddr("fd00::1"), Service: wire.SvcNull, Conn: 5},
				Action: cache.Action{
					Forward:       []wire.Addr{wire.MustAddr("fd00::9"), wire.MustAddr("fd00::a")},
					Drop:          false,
					RewriteHeader: []byte{1, 2, 3},
					DependsOn:     wire.MustAddr("fd00::d"),
				},
			},
			{
				Key:    wire.FlowKey{Src: wire.MustAddr("fd00::2"), Service: wire.SvcDDoS, Conn: 6},
				Action: cache.Action{Drop: true},
			},
		},
		Invalidate: []wire.FlowKey{
			{Src: wire.MustAddr("fd00::3"), Service: wire.SvcQoS, Conn: 7},
		},
	}
	enc, err := encodeDecision(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDecision(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !decisionsEqual(d, &got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", d, got)
	}
	// A Route verdict crosses with its rewrite on the forward as well as on
	// the rule: without it the first packet would leave under the old header.
	pkt := &Packet{Src: wire.MustAddr("fd00::1"), Hdr: wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 9}}
	route := pkt.Route(wire.MustAddr("fd00::9"), []byte{7, 8, 9}, wire.MustAddr("fd00::e"))
	if enc, err = encodeDecision(nil, &route); err != nil {
		t.Fatal(err)
	}
	if got, err = decodeDecision(enc); err != nil {
		t.Fatal(err)
	}
	if !decisionsEqual(&route, &got) || got.Forwards[0].RewriteHeader == nil {
		t.Fatalf("Route roundtrip mismatch:\n%+v\n%+v", route, got)
	}
}

func TestDecisionCodecEmpty(t *testing.T) {
	enc, err := encodeDecision(nil, &Decision{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDecision(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Forwards) != 0 || len(got.Rules) != 0 || len(got.Invalidate) != 0 {
		t.Fatalf("non-empty decode: %+v", got)
	}
}

func TestDecisionDecodeGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = decodeDecision(data)
		_, _ = decodePacket(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: packet codec roundtrips arbitrary contents.
func TestPacketCodecProperty(t *testing.T) {
	f := func(svc uint32, conn uint64, data, payload []byte) bool {
		if len(data) > wire.MaxServiceData {
			data = data[:wire.MaxServiceData]
		}
		pkt := &Packet{
			Src:     wire.MustAddr("fd00::ff"),
			Hdr:     wire.ILPHeader{Service: wire.ServiceID(svc), Conn: wire.ConnectionID(conn), Data: data},
			Payload: payload,
		}
		enc, err := encodePacket(nil, pkt)
		if err != nil {
			return false
		}
		got, err := decodePacket(enc)
		if err != nil {
			return false
		}
		return got.Hdr.Service == pkt.Hdr.Service && got.Hdr.Conn == pkt.Hdr.Conn &&
			bytes.Equal(got.Hdr.Data, data) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
