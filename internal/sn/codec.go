package sn

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"interedge/internal/wire"
)

// Binary codec for Packet and Decision. Used on module transports that
// move bytes across a boundary: the Unix-socket IPC transport (the paper
// prototype's configuration) and the enclave boundary (where data is
// re-encrypted by the memory controller). The in-process transport passes
// pointers and skips the codec entirely.

func putAddr(buf []byte, a wire.Addr) {
	b := a.As16()
	copy(buf, b[:])
}

func getAddr(buf []byte) wire.Addr {
	var b [16]byte
	copy(b[:], buf)
	return netip.AddrFrom16(b).Unmap()
}

// encodePacket appends pkt's encoding to dst.
func encodePacket(dst []byte, pkt *Packet) ([]byte, error) {
	hdrLen := pkt.Hdr.EncodedSize()
	start := len(dst)
	dst = append(dst, make([]byte, 16+2+hdrLen+4+len(pkt.Payload))...)
	buf := dst[start:]
	putAddr(buf[0:16], pkt.Src)
	binary.BigEndian.PutUint16(buf[16:18], uint16(hdrLen))
	if _, err := pkt.Hdr.SerializeTo(buf[18 : 18+hdrLen]); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[18+hdrLen:22+hdrLen], uint32(len(pkt.Payload)))
	copy(buf[22+hdrLen:], pkt.Payload)
	return dst, nil
}

// decodePacket parses a packet encoding. The decoded fields alias data.
func decodePacket(data []byte) (*Packet, error) {
	if len(data) < 22 {
		return nil, wire.ErrTruncated
	}
	pkt := &Packet{Src: getAddr(data[0:16])}
	hdrLen := int(binary.BigEndian.Uint16(data[16:18]))
	if len(data) < 18+hdrLen+4 {
		return nil, wire.ErrTruncated
	}
	if _, err := pkt.Hdr.DecodeFromBytes(data[18 : 18+hdrLen]); err != nil {
		return nil, err
	}
	plen := int(binary.BigEndian.Uint32(data[18+hdrLen : 22+hdrLen]))
	if len(data) < 22+hdrLen+plen {
		return nil, wire.ErrTruncated
	}
	pkt.Payload = data[22+hdrLen : 22+hdrLen+plen]
	return pkt, nil
}

func appendUint16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendAddr(dst []byte, a wire.Addr) []byte {
	b := a.As16()
	return append(dst, b[:]...)
}

func appendBytes32(dst []byte, b []byte) []byte {
	dst = appendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendFlowKey(dst []byte, k wire.FlowKey) []byte {
	dst = appendAddr(dst, k.Src)
	dst = appendUint32(dst, uint32(k.Service))
	return appendUint64(dst, uint64(k.Conn))
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = wire.ErrTruncated
	}
}

func (r *reader) uint8() uint8 {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) uint16() uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *reader) uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) addr() wire.Addr {
	if r.err != nil || r.off+16 > len(r.data) {
		r.fail()
		return wire.Addr{}
	}
	a := getAddr(r.data[r.off:])
	r.off += 16
	return a
}

func (r *reader) bytes32() []byte {
	n := int(r.uint32())
	if r.err != nil || r.off+n > len(r.data) {
		r.fail()
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) flowKey() wire.FlowKey {
	return wire.FlowKey{
		Src:     r.addr(),
		Service: wire.ServiceID(r.uint32()),
		Conn:    wire.ConnectionID(r.uint64()),
	}
}

// encodeDecision appends d's encoding to dst.
func encodeDecision(dst []byte, d *Decision) ([]byte, error) {
	dst = appendUint16(dst, uint16(len(d.Forwards)))
	for i := range d.Forwards {
		f := &d.Forwards[i]
		dst = appendAddr(dst, f.Dst)
		var flags byte
		if f.Hdr != nil {
			flags |= 1
		}
		if f.Payload != nil {
			flags |= 2
		}
		if f.Empty {
			flags |= 4
		}
		dst = append(dst, flags)
		if f.Hdr != nil {
			enc, err := f.Hdr.Encode()
			if err != nil {
				return nil, err
			}
			dst = appendUint16(dst, uint16(len(enc)))
			dst = append(dst, enc...)
		}
		if f.Payload != nil {
			dst = appendBytes32(dst, f.Payload)
		}
	}
	dst = appendUint16(dst, uint16(len(d.Rules)))
	for i := range d.Rules {
		r := &d.Rules[i]
		dst = appendFlowKey(dst, r.Key)
		var flags byte
		if r.Action.Drop {
			flags |= 1
		}
		if r.Action.Deliver {
			flags |= 2
		}
		if r.Action.RewriteHeader != nil {
			flags |= 4
		}
		if r.Action.DependsOn.IsValid() {
			flags |= 8
		}
		dst = append(dst, flags)
		dst = appendUint16(dst, uint16(len(r.Action.Forward)))
		for _, a := range r.Action.Forward {
			dst = appendAddr(dst, a)
		}
		if r.Action.RewriteHeader != nil {
			dst = appendBytes32(dst, r.Action.RewriteHeader)
		}
		if r.Action.DependsOn.IsValid() {
			dst = appendAddr(dst, r.Action.DependsOn)
		}
	}
	dst = appendUint16(dst, uint16(len(d.Invalidate)))
	for _, k := range d.Invalidate {
		dst = appendFlowKey(dst, k)
	}
	return dst, nil
}

// decodeDecision parses a decision encoding. Byte-slice fields are copied
// so the result outlives data.
func decodeDecision(data []byte) (Decision, error) {
	r := &reader{data: data}
	var d Decision
	nf := int(r.uint16())
	for i := 0; i < nf && r.err == nil; i++ {
		var f Forward
		f.Dst = r.addr()
		flags := r.uint8()
		if flags&1 != 0 {
			hlen := int(r.uint16())
			if r.err != nil || r.off+hlen > len(r.data) {
				r.fail()
				break
			}
			var hdr wire.ILPHeader
			if _, err := hdr.DecodeFromBytes(r.data[r.off : r.off+hlen]); err != nil {
				return Decision{}, err
			}
			hdr.Data = append([]byte(nil), hdr.Data...)
			f.Hdr = &hdr
			r.off += hlen
		}
		if flags&2 != 0 {
			f.Payload = append([]byte(nil), r.bytes32()...)
		}
		f.Empty = flags&4 != 0
		d.Forwards = append(d.Forwards, f)
	}
	nr := int(r.uint16())
	for i := 0; i < nr && r.err == nil; i++ {
		var rule Rule
		rule.Key = r.flowKey()
		flags := r.uint8()
		rule.Action.Drop = flags&1 != 0
		rule.Action.Deliver = flags&2 != 0
		nfwd := int(r.uint16())
		for j := 0; j < nfwd && r.err == nil; j++ {
			rule.Action.Forward = append(rule.Action.Forward, r.addr())
		}
		if flags&4 != 0 {
			rule.Action.RewriteHeader = append([]byte(nil), r.bytes32()...)
		}
		if flags&8 != 0 {
			rule.Action.DependsOn = r.addr()
		}
		d.Rules = append(d.Rules, rule)
	}
	ni := int(r.uint16())
	for i := 0; i < ni && r.err == nil; i++ {
		d.Invalidate = append(d.Invalidate, r.flowKey())
	}
	if r.err != nil {
		return Decision{}, fmt.Errorf("sn: decode decision: %w", r.err)
	}
	return d, nil
}
