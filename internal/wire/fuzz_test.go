package wire

import (
	"bytes"
	"testing"
)

func FuzzILPHeaderDecode(f *testing.F) {
	// Seed corpus: minimal header, header with service data, truncated
	// fixed part, and an oversized declared data length.
	h := ILPHeader{Service: SvcEcho, Conn: 42}
	if enc, err := h.Encode(); err == nil {
		f.Add(enc)
	}
	h2 := ILPHeader{Service: SvcControl, Conn: 7, Data: []byte("service-data")}
	if enc, err := h2.Encode(); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 0x14, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var h ILPHeader
		n, err := h.DecodeFromBytes(data)
		if err != nil {
			return
		}
		if n < ILPHeaderFixedSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(h.Data) > MaxServiceData {
			t.Fatalf("decoded Data length %d exceeds MaxServiceData", len(h.Data))
		}
		enc, err := h.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded header failed: %v", err)
		}
		var h2 ILPHeader
		if _, err := h2.DecodeFromBytes(enc); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2.Service != h.Service || h2.Conn != h.Conn || !bytes.Equal(h2.Data, h.Data) {
			t.Fatalf("round trip mismatch: %+v vs %+v", h, h2)
		}
	})
}

// FuzzTransitDecode: SvcPeering service data — the two addresses and the
// nested header — decodes or is refused, never panics; what decodes stays
// inside the input, re-encodes to the same bytes, and is never a service a
// transit packet may not carry.
func FuzzTransitDecode(f *testing.F) {
	for _, inner := range []ILPHeader{
		{Service: SvcIPFwd, Conn: 2, Data: make([]byte, 16)},
		{Service: SvcEcho, Conn: 1 << 40},
		{Service: SvcNone},
	} {
		if outer, err := TransitHeader(MustAddr("fd00::b2"), MustAddr("fd00::1"), &inner); err == nil {
			f.Add(outer.Data)
			f.Add(outer.Data[:len(outer.Data)-1])
		}
	}
	f.Add(make([]byte, TransitMetaSize))
	f.Add(append(make([]byte, TransitMetaSize), 0, 0, 0, byte(SvcPeering), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(append(make([]byte, TransitMetaSize), 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, ok := TransitFinalDst(data)
		var tr Transit
		if err := tr.DecodeFromBytes(data); err != nil {
			return
		}
		if !ok || dst != tr.FinalDst {
			t.Fatalf("TransitFinalDst = %v, %v; the full decode found %v", dst, ok, tr.FinalDst)
		}
		if !transitable(tr.Inner.Service) {
			t.Fatalf("decoded an inner %s header", tr.Inner.Service)
		}
		if len(tr.InnerRaw) != len(data)-TransitMetaSize || len(tr.Inner.Data) != len(tr.InnerRaw)-ILPHeaderFixedSize {
			t.Fatalf("inner header of %d bytes, %d of them data, from %d bytes of service data",
				len(tr.InnerRaw), len(tr.Inner.Data), len(data))
		}
		outer, err := TransitHeader(tr.FinalDst, tr.OrigSrc, &tr.Inner)
		if err != nil {
			t.Fatalf("re-encode of decoded transit failed: %v", err)
		}
		// Addresses decode unmapped, so a v4-mapped input re-encodes to
		// itself; everything else must too.
		if !bytes.Equal(outer.Data, data) {
			t.Fatalf("round trip mismatch: %x vs %x", outer.Data, data)
		}
	})
}

func FuzzDatagramDecode(f *testing.F) {
	dg := Datagram{Src: MustAddr("fd00::1"), Dst: MustAddr("fd00::2"), Payload: []byte("hello")}
	if enc, err := dg.Encode(); err == nil {
		f.Add(enc)
	}
	empty := Datagram{Src: MustAddr("::1"), Dst: MustAddr("192.0.2.1")}
	if enc, err := empty.Encode(); err == nil {
		f.Add(enc)
	}
	f.Add(make([]byte, DatagramHeaderSize-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Datagram
		n, err := d.DecodeFromBytes(data)
		if err != nil {
			return
		}
		if n < DatagramHeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(d.Payload) > MTU {
			// Decode has no MTU check (the substrate enforces it on send),
			// but the declared length can never exceed what a uint16 holds.
			if len(d.Payload) > 0xFFFF {
				t.Fatalf("payload length %d exceeds length field range", len(d.Payload))
			}
			return
		}
		enc, err := d.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded datagram failed: %v", err)
		}
		var d2 Datagram
		if _, err := d2.DecodeFromBytes(enc); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if d2.Src != d.Src || d2.Dst != d.Dst || !bytes.Equal(d2.Payload, d.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", d, d2)
		}
	})
}

func FuzzPSPHeaderDecode(f *testing.F) {
	h := PSPHeader{SPI: 0xAABBCC00, IV: 7}
	buf := make([]byte, PSPHeaderSize)
	if _, err := h.SerializeTo(buf); err == nil {
		f.Add(buf)
	}
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		var h PSPHeader
		n, err := h.DecodeFromBytes(data)
		if err != nil {
			return
		}
		if n != PSPHeaderSize {
			t.Fatalf("consumed %d bytes, want %d", n, PSPHeaderSize)
		}
		out := make([]byte, PSPHeaderSize)
		if _, err := h.SerializeTo(out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		if !bytes.Equal(out, data[:PSPHeaderSize]) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data[:PSPHeaderSize])
		}
	})
}
