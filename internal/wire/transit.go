package wire

import (
	"errors"
	"fmt"
	"net/netip"
)

// Inter-edomain transit (SvcPeering). A packet crossing edomains rides inside
// an outer ILP header whose service data nests the whole inner header:
//
//	finalDst(16) ‖ origSrc(16) ‖ inner ILP header, encoded
//
// and whose payload is the inner payload, untouched. The outer header is
// therefore constant for a flow — an ingress SN wraps by header rewrite from
// its decision cache — and the inner header travels under each pipe's header
// encryption like any other ILP header. The SN named by finalDst unwraps in
// its pipe-terminus.
//
// The inner service is SvcNone or a standardized one. The services in between
// are answered by the pipe layer or the pipe-terminus on the word of the
// authenticated pipe peer, and inside transit the source is only what the
// wrapper claims; SvcPeering is one of them, so transit nests one deep.

// TransitMetaSize is the size of the two addresses ahead of the inner header.
const TransitMetaSize = 16 + 16

// MaxTransitInnerData is the most service data an inner header can carry and
// still nest inside an outer header's MaxServiceData.
const MaxTransitInnerData = MaxServiceData - TransitMetaSize - ILPHeaderFixedSize

// Errors returned by the transit codec.
var (
	ErrBadTransit    = errors.New("wire: malformed transit encapsulation")
	ErrTransitInner  = errors.New("wire: architecture-internal service cannot ride in transit")
	ErrTransitTooBig = fmt.Errorf("wire: inner service data exceeds %d bytes, cannot nest in a transit header", MaxTransitInnerData)
)

func transitable(s ServiceID) bool { return s == SvcNone || s >= SvcNull }

// TransitHeaderSize is the size of the encoded outer header that carries
// inner: what PutTransitHeader writes.
func TransitHeaderSize(inner *ILPHeader) int {
	return ILPHeaderFixedSize + TransitMetaSize + inner.EncodedSize()
}

// PutTransitHeader writes into enc, which must be TransitHeaderSize(inner)
// bytes long, the encoded outer header that carries inner from origSrc to the
// SN finalDst: what an ingress SN sends a flow's first packet under and
// installs as the flow's header rewrite. The outer connection ID is a hash
// of (finalDst, origSrc, inner service, inner connection): gateways key
// transit rules by (previous hop, SvcPeering, connection), and hosts all
// number their connections from the same start, so copying the inner ID
// would let two hosts' flows share — and misroute through — one rule.
func PutTransitHeader(enc []byte, finalDst, origSrc Addr, inner *ILPHeader) error {
	if !transitable(inner.Service) {
		return ErrTransitInner
	}
	if len(inner.Data) > MaxTransitInnerData {
		return ErrTransitTooBig
	}
	if len(enc) != TransitHeaderSize(inner) {
		return fmt.Errorf("wire: transit header needs %d bytes, not %d", TransitHeaderSize(inner), len(enc))
	}
	data := enc[ILPHeaderFixedSize:]
	d, s := finalDst.As16(), origSrc.As16()
	copy(data[0:16], d[:])
	copy(data[16:32], s[:])
	if _, err := inner.SerializeTo(data[TransitMetaSize:]); err != nil {
		return err
	}
	// Hashed: the addresses and the inner service and connection IDs, which
	// lead the encoded inner header.
	conn := ConnectionID(fnv1a(data[:TransitMetaSize+4+8]))
	putILPFixed(enc, SvcPeering, conn, len(data))
	return nil
}

// EncodeTransitHeader is PutTransitHeader into a fresh slice.
func EncodeTransitHeader(finalDst, origSrc Addr, inner *ILPHeader) ([]byte, error) {
	enc := make([]byte, TransitHeaderSize(inner))
	if err := PutTransitHeader(enc, finalDst, origSrc, inner); err != nil {
		return nil, err
	}
	return enc, nil
}

// TransitHeader is EncodeTransitHeader decoded: the outer header, whose Data
// aliases the one encoding.
func TransitHeader(finalDst, origSrc Addr, inner *ILPHeader) (ILPHeader, error) {
	enc, err := EncodeTransitHeader(finalDst, origSrc, inner)
	if err != nil {
		return ILPHeader{}, err
	}
	var outer ILPHeader
	_, err = outer.DecodeFromBytes(enc)
	return outer, err
}

// Transit is the decoded service data of a SvcPeering header.
type Transit struct {
	FinalDst Addr // the SN that unwraps
	OrigSrc  Addr // the source the inner packet entered the InterEdge with
	// Inner is the nested header and InnerRaw its encoding; Inner.Data and
	// InnerRaw alias the decoded bytes.
	Inner    ILPHeader
	InnerRaw []byte
}

// DecodeFromBytes parses SvcPeering service data. The inner header must fill
// the data exactly and name a service that may ride in transit.
func (t *Transit) DecodeFromBytes(data []byte) error {
	var ok bool
	if t.FinalDst, ok = TransitFinalDst(data); !ok {
		return ErrBadTransit
	}
	t.OrigSrc = netip.AddrFrom16([16]byte(data[16:32])).Unmap()
	t.InnerRaw = data[TransitMetaSize:]
	n, err := t.Inner.DecodeFromBytes(t.InnerRaw)
	if err != nil || n != len(t.InnerRaw) || !transitable(t.Inner.Service) {
		return ErrBadTransit
	}
	return nil
}

// TransitFinalDst reads only the destination SN of SvcPeering service data:
// what a pipe-terminus needs to tell a packet it must unwrap from one passing
// through. ok is false when data is too short to hold it.
func TransitFinalDst(data []byte) (finalDst Addr, ok bool) {
	if len(data) < TransitMetaSize {
		return Addr{}, false
	}
	return netip.AddrFrom16([16]byte(data[0:16])).Unmap(), true
}
