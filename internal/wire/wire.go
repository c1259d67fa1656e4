// Package wire defines the on-the-wire formats of the InterEdge: the ILP
// (Interposition-Layer Protocol) header, the PSP-style encryption header
// that protects it, and the L3 datagram framing used by the network
// substrate.
//
// The encoding style follows the layered decode/serialize idiom: each header
// type can decode itself from a byte slice (reporting how many bytes it
// consumed) and serialize itself into one, so the pipe-terminus can operate
// on packets with minimal copying.
//
// Per §4 of the paper, an ILP packet carried inside an L3 datagram looks
// like:
//
//	+----------------+---------------------------+-----+------------------+
//	| PSP header     | ciphertext of ILP header  | tag | application data |
//	| SPI(4) IV(8)   | svc(4) conn(8) len(2) ... | 16  | (opaque, authed) |
//	+----------------+---------------------------+-----+------------------+
//
// Only the ILP header is encrypted with the pipe's shared key; application
// data is protected end-to-end by the endpoints and is covered here only by
// the authentication tag.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Addr identifies a node (host or SN) at the emulated L3 layer. We reuse
// netip.Addr: it is compact, comparable, and usable as a map key, which the
// pipe-terminus relies on for peer lookup.
type Addr = netip.Addr

// MustAddr parses a textual address and panics on failure. For tests,
// examples, and static topology definitions.
func MustAddr(s string) Addr {
	return netip.MustParseAddr(s)
}

// AllValid reports whether no address in addrs is the zero Addr — what a
// list decoded from JSON holds where the text was empty.
func AllValid(addrs []Addr) bool {
	for _, a := range addrs {
		if !a.IsValid() {
			return false
		}
	}
	return true
}

// ShardIndex maps an address onto one of n shards (FNV-1a over the
// 16-byte form). Both the pipe engine's RX-worker sharding and the
// decision cache's source-affine striping use this same function, so the
// worker that owns a source also owns that source's cache shard — lookups
// from the fast path never touch a shard another worker is writing.
func ShardIndex(a Addr, n int) int {
	b := a.As16()
	return int(fnv1a(b[:]) % uint64(n))
}

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// ServiceID identifies a standardized InterEdge service. Service IDs are
// assigned by the governance body standardizing service modules (§3.1).
type ServiceID uint32

// ConnectionID identifies one connection within a service. Connection IDs
// are chosen by the initiating host and are unique per (source, service).
type ConnectionID uint64

// Well-known service IDs. IDs below 0x100 are reserved for architecture
// internals; standardized services start at 0x100.
const (
	// SvcNone marks a packet carrying no service request; the
	// pipe-terminus forwards it without invoking any module (the paper's
	// "no-service" baseline).
	SvcNone ServiceID = 0x00
	// SvcControl carries the out-of-band host<->SN control protocol (§3.2
	// second invocation style).
	SvcControl ServiceID = 0x01
	// SvcPeering carries packets in transit between edomains (transit.go).
	SvcPeering ServiceID = 0x02
	// SvcPipeProbe and SvcPipeProbeAck carry pipe-liveness keepalives.
	// They are sealed like any ILP packet — an ack proves the peer still
	// holds the pipe keys — but are consumed inside the pipe engine and
	// never reach a PacketHandler.
	SvcPipeProbe    ServiceID = 0x03
	SvcPipeProbeAck ServiceID = 0x04
	// SvcPipeMove tells a host, over its existing sealed pipe, that its
	// serving SN is draining and names the successor. The host rebinds the
	// pipe to the new address (keeping its keys, rotating its TX epoch)
	// instead of tearing it down.
	SvcPipeMove ServiceID = 0x05
	// SvcHandoff carries serialized pipe state (HandoffState) between
	// sibling SNs over their sealed inter-SN pipe during a drain.
	SvcHandoff ServiceID = 0x06

	SvcNull      ServiceID = 0x100
	SvcIPFwd     ServiceID = 0x101
	SvcPubSub    ServiceID = 0x102
	SvcMulticast ServiceID = 0x103
	SvcAnycast   ServiceID = 0x104
	SvcODNS      ServiceID = 0x105
	SvcRelay     ServiceID = 0x106
	SvcMixnet    ServiceID = 0x107
	SvcDDoS      ServiceID = 0x108
	SvcQoS       ServiceID = 0x109
	SvcCDNCache  ServiceID = 0x10A
	SvcMsgQueue  ServiceID = 0x10B
	SvcOrdered   ServiceID = 0x10C
	SvcBulk      ServiceID = 0x10D
	SvcVPN       ServiceID = 0x10E
	SvcZTNA      ServiceID = 0x10F
	SvcSDWAN     ServiceID = 0x110
	SvcFirewall  ServiceID = 0x111
	SvcAttest    ServiceID = 0x112
	SvcMobility  ServiceID = 0x113
	SvcEcho      ServiceID = 0x114
	// SvcWebBundle is the "IP-like service and a caching service" bundle
	// of §3.2, with caching controlled per-invocation via header metadata.
	SvcWebBundle ServiceID = 0x115
)

// String returns a human-readable name for well-known service IDs.
func (s ServiceID) String() string {
	if name, ok := serviceNames[s]; ok {
		return name
	}
	return fmt.Sprintf("svc-0x%x", uint32(s))
}

var serviceNames = map[ServiceID]string{
	SvcNone:         "none",
	SvcControl:      "control",
	SvcPeering:      "peering",
	SvcPipeProbe:    "pipe-probe",
	SvcPipeProbeAck: "pipe-probe-ack",
	SvcPipeMove:     "pipe-move",
	SvcHandoff:      "handoff",
	SvcNull:         "null",
	SvcIPFwd:        "ipfwd",
	SvcPubSub:       "pubsub",
	SvcMulticast:    "multicast",
	SvcAnycast:      "anycast",
	SvcODNS:         "odns",
	SvcRelay:        "relay",
	SvcMixnet:       "mixnet",
	SvcDDoS:         "ddos",
	SvcQoS:          "qos",
	SvcCDNCache:     "cdncache",
	SvcMsgQueue:     "msgqueue",
	SvcOrdered:      "ordered",
	SvcBulk:         "bulk",
	SvcVPN:          "vpn",
	SvcZTNA:         "ztna",
	SvcSDWAN:        "sdwan",
	SvcFirewall:     "firewall",
	SvcAttest:       "attest",
	SvcMobility:     "mobility",
	SvcEcho:         "echo",
	SvcWebBundle:    "webbundle",
}

// MTU is the maximum L3 datagram payload the substrate carries. ILP places
// no limit on header contents beyond the MTU (§4).
const MTU = 9000

// Errors returned by decoders.
var (
	ErrTruncated    = errors.New("wire: truncated packet")
	ErrHeaderTooBig = errors.New("wire: ILP header exceeds limit")
)

// ILPHeaderFixedSize is the size of the fixed portion of the ILP header:
// service ID (4), connection ID (8), and service-data length (2).
const ILPHeaderFixedSize = 4 + 8 + 2

// MaxServiceData bounds the service-specific portion of a single packet's
// ILP header. Services needing more spread it across packets (App. B.2).
const MaxServiceData = 4096

// ILPHeader is the interposition-layer header. Per §4, the only required
// fields are the service ID and connection ID; the rest is service-specific
// and may differ from packet to packet within a connection.
type ILPHeader struct {
	Service ServiceID
	Conn    ConnectionID
	// Data is the service-specific portion. Its length and content are
	// unconstrained up to MaxServiceData.
	Data []byte
}

// EncodedSize returns the number of bytes SerializeTo will write.
func (h *ILPHeader) EncodedSize() int {
	return ILPHeaderFixedSize + len(h.Data)
}

// SerializeTo writes the header into buf, which must have capacity for
// EncodedSize bytes, and returns the number of bytes written.
func (h *ILPHeader) SerializeTo(buf []byte) (int, error) {
	if len(h.Data) > MaxServiceData {
		return 0, ErrHeaderTooBig
	}
	n := h.EncodedSize()
	if len(buf) < n {
		return 0, fmt.Errorf("wire: buffer too small for ILP header: %d < %d", len(buf), n)
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(h.Service))
	binary.BigEndian.PutUint64(buf[4:12], uint64(h.Conn))
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(h.Data)))
	copy(buf[ILPHeaderFixedSize:], h.Data)
	return n, nil
}

// Encode returns a freshly allocated encoding of the header.
func (h *ILPHeader) Encode() ([]byte, error) {
	buf := make([]byte, h.EncodedSize())
	if _, err := h.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendEncode appends the header's encoding to dst and returns the extended
// slice (dst itself on error), so a sender can encode into a buffer it
// already holds instead of allocating one per packet.
func (h *ILPHeader) AppendEncode(dst []byte) ([]byte, error) {
	if len(h.Data) > MaxServiceData {
		return dst, ErrHeaderTooBig
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.Service))
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.Conn))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Data)))
	return append(dst, h.Data...), nil
}

// DecodeFromBytes parses the header from data and returns the number of
// bytes consumed. The Data field aliases the input slice; callers that
// retain the header past the lifetime of the input must copy it.
func (h *ILPHeader) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < ILPHeaderFixedSize {
		return 0, ErrTruncated
	}
	h.Service = ServiceID(binary.BigEndian.Uint32(data[0:4]))
	h.Conn = ConnectionID(binary.BigEndian.Uint64(data[4:12]))
	dlen := int(binary.BigEndian.Uint16(data[12:14]))
	if dlen > MaxServiceData {
		return 0, ErrHeaderTooBig
	}
	if len(data) < ILPHeaderFixedSize+dlen {
		return 0, ErrTruncated
	}
	h.Data = data[ILPHeaderFixedSize : ILPHeaderFixedSize+dlen]
	return ILPHeaderFixedSize + dlen, nil
}

// PSPHeaderSize is the size of the PSP-style header: SPI (4) and IV (8).
const PSPHeaderSize = 4 + 8

// PSPHeader is the cleartext prefix of every ILP packet, modeled on
// Google's PSP: a Security Parameter Index identifying the key (and key
// epoch) plus a per-packet IV, so each packet is independently decryptable
// regardless of ordering or loss (§4).
type PSPHeader struct {
	SPI uint32
	IV  uint64
}

// SerializeTo writes the header into buf and returns bytes written.
func (h *PSPHeader) SerializeTo(buf []byte) (int, error) {
	if len(buf) < PSPHeaderSize {
		return 0, fmt.Errorf("wire: buffer too small for PSP header: %d", len(buf))
	}
	binary.BigEndian.PutUint32(buf[0:4], h.SPI)
	binary.BigEndian.PutUint64(buf[4:12], h.IV)
	return PSPHeaderSize, nil
}

// DecodeFromBytes parses the header and returns bytes consumed.
func (h *PSPHeader) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < PSPHeaderSize {
		return 0, ErrTruncated
	}
	h.SPI = binary.BigEndian.Uint32(data[0:4])
	h.IV = binary.BigEndian.Uint64(data[4:12])
	return PSPHeaderSize, nil
}

// DatagramHeaderSize is the L3 framing overhead: 16-byte source and
// destination addresses plus a 2-byte payload length.
const DatagramHeaderSize = 16 + 16 + 2

// Datagram is the emulated L3 packet: addressed, unreliable, unordered.
// Transport implementations move Datagrams between nodes; everything above
// (ILP, services) is transport-agnostic.
type Datagram struct {
	Src     Addr
	Dst     Addr
	Payload []byte
}

// EncodedSize returns the serialized size of the datagram.
func (d *Datagram) EncodedSize() int { return DatagramHeaderSize + len(d.Payload) }

// SerializeTo writes the datagram into buf and returns bytes written. Both
// addresses are encoded in 16-byte IPv6 form (IPv4 maps to v4-mapped-v6).
func (d *Datagram) SerializeTo(buf []byte) (int, error) {
	n := d.EncodedSize()
	if len(buf) < n {
		return 0, fmt.Errorf("wire: buffer too small for datagram: %d < %d", len(buf), n)
	}
	if len(d.Payload) > MTU {
		return 0, fmt.Errorf("wire: payload %d exceeds MTU %d", len(d.Payload), MTU)
	}
	src16 := d.Src.As16()
	dst16 := d.Dst.As16()
	copy(buf[0:16], src16[:])
	copy(buf[16:32], dst16[:])
	binary.BigEndian.PutUint16(buf[32:34], uint16(len(d.Payload)))
	copy(buf[DatagramHeaderSize:], d.Payload)
	return n, nil
}

// Encode returns a freshly allocated serialization of the datagram.
func (d *Datagram) Encode() ([]byte, error) {
	buf := make([]byte, d.EncodedSize())
	if _, err := d.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendEncode serializes the datagram onto dst, growing it as needed, and
// returns the extended slice. This lets transports reuse pooled encode
// buffers instead of allocating per packet.
func (d *Datagram) AppendEncode(dst []byte) ([]byte, error) {
	off := len(dst)
	n := d.EncodedSize()
	if cap(dst)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+n]
	if _, err := d.SerializeTo(dst[off:]); err != nil {
		return dst[:off], err
	}
	return dst, nil
}

// DecodeFromBytes parses a datagram. The Payload aliases the input.
func (d *Datagram) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < DatagramHeaderSize {
		return 0, ErrTruncated
	}
	var src16, dst16 [16]byte
	copy(src16[:], data[0:16])
	copy(dst16[:], data[16:32])
	d.Src = netip.AddrFrom16(src16).Unmap()
	d.Dst = netip.AddrFrom16(dst16).Unmap()
	plen := int(binary.BigEndian.Uint16(data[32:34]))
	if len(data) < DatagramHeaderSize+plen {
		return 0, ErrTruncated
	}
	d.Payload = data[DatagramHeaderSize : DatagramHeaderSize+plen]
	return DatagramHeaderSize + plen, nil
}

// FlowKey identifies a service connection at an SN: the decision cache is
// keyed by (L3 source, service ID, connection ID) exactly as in §4.
type FlowKey struct {
	Src     Addr
	Service ServiceID
	Conn    ConnectionID
}

// String renders the flow key for logs.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s/%s/conn-%d", k.Src, k.Service, uint64(k.Conn))
}
