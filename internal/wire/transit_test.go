package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestTransitRoundTrip(t *testing.T) {
	finalDst, origSrc := MustAddr("fd00::b2"), MustAddr("10.0.0.7")
	inner := ILPHeader{Service: SvcIPFwd, Conn: 42, Data: []byte("destination")}
	outer, err := TransitHeader(finalDst, origSrc, &inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Service != SvcPeering || len(outer.Data) != TransitMetaSize+inner.EncodedSize() {
		t.Fatalf("outer %+v", outer)
	}
	var tr Transit
	if err := tr.DecodeFromBytes(outer.Data); err != nil {
		t.Fatal(err)
	}
	innerRaw, _ := inner.Encode()
	if tr.FinalDst != finalDst || tr.OrigSrc != origSrc || !bytes.Equal(tr.InnerRaw, innerRaw) ||
		tr.Inner.Service != inner.Service || tr.Inner.Conn != inner.Conn || !bytes.Equal(tr.Inner.Data, inner.Data) {
		t.Fatalf("decoded %+v", tr)
	}
	if &tr.InnerRaw[0] != &outer.Data[TransitMetaSize] {
		t.Fatal("decode copied the inner header; it must alias the service data")
	}
	if dst, ok := TransitFinalDst(outer.Data); !ok || dst != finalDst {
		t.Fatalf("TransitFinalDst = %v, %v", dst, ok)
	}
}

// TestTransitConnSeparatesFlows: the outer connection ID is a function of the
// flow, and flows that differ in any of its four parts — notably two hosts
// using the same inner connection ID — get different ones.
func TestTransitConnSeparatesFlows(t *testing.T) {
	conn := func(dst, src string, svc ServiceID, c ConnectionID) ConnectionID {
		t.Helper()
		outer, err := TransitHeader(MustAddr(dst), MustAddr(src), &ILPHeader{Service: svc, Conn: c, Data: []byte{byte(c)}})
		if err != nil {
			t.Fatal(err)
		}
		return outer.Conn
	}
	base := conn("fd00::b2", "fd00::1", SvcIPFwd, 2)
	if again := conn("fd00::b2", "fd00::1", SvcIPFwd, 2); again != base {
		t.Fatalf("same flow hashed to %d and %d", base, again)
	}
	for name, other := range map[string]ConnectionID{
		"source":      conn("fd00::b2", "fd00::2", SvcIPFwd, 2),
		"destination": conn("fd00::b3", "fd00::1", SvcIPFwd, 2),
		"service":     conn("fd00::b2", "fd00::1", SvcEcho, 2),
		"connection":  conn("fd00::b2", "fd00::1", SvcIPFwd, 3),
	} {
		if other == base {
			t.Errorf("flows differing in %s share outer connection %d", name, base)
		}
	}
}

func TestTransitRejects(t *testing.T) {
	dst, src := MustAddr("fd00::b2"), MustAddr("fd00::1")
	if _, err := TransitHeader(dst, src, &ILPHeader{Service: SvcEcho, Data: make([]byte, MaxTransitInnerData+1)}); !errors.Is(err, ErrTransitTooBig) {
		t.Fatalf("oversized inner data: err = %v", err)
	}
	if _, err := TransitHeader(dst, src, &ILPHeader{Service: SvcPeering}); !errors.Is(err, ErrTransitInner) {
		t.Fatalf("nested transit: err = %v", err)
	}
	good, err := TransitHeader(dst, src, &ILPHeader{Service: SvcEcho, Conn: 1, Data: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	nested := append([]byte(nil), good.Data...)
	copy(nested[TransitMetaSize:], []byte{0, 0, 0, byte(SvcPeering)})
	handoff := append([]byte(nil), good.Data...)
	copy(handoff[TransitMetaSize:], []byte{0, 0, 0, byte(SvcHandoff)})
	long := append([]byte(nil), good.Data...)
	long[TransitMetaSize+12], long[TransitMetaSize+13] = 0xFF, 0xFF // inner data length beyond MaxServiceData
	for name, data := range map[string][]byte{
		"empty":            nil,
		"short meta":       good.Data[:TransitMetaSize-1],
		"no inner header":  good.Data[:TransitMetaSize],
		"truncated fixed":  good.Data[:TransitMetaSize+ILPHeaderFixedSize-1],
		"truncated data":   good.Data[:len(good.Data)-1],
		"trailing bytes":   append(append([]byte(nil), good.Data...), 0),
		"oversized length": long,
		"nested transit":   nested,
		"inner handoff":    handoff,
	} {
		var tr Transit
		if err := tr.DecodeFromBytes(data); !errors.Is(err, ErrBadTransit) {
			t.Errorf("%s: err = %v, want ErrBadTransit", name, err)
		}
	}
	if _, ok := TransitFinalDst(good.Data[:TransitMetaSize-1]); ok {
		t.Error("TransitFinalDst read a destination out of short data")
	}
}
