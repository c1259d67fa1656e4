package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
)

// Every application payload the benchmark sends is self-verifying:
//
//	[0:4]   flow tag (index of the flow in the workload's flow table)
//	[4:12]  operation id (one counter across the run's flows)
//	[12:16] CRC32 (IEEE) over bytes [0:12] and [16:]
//	[16:]   body, drawn from a seeded byte pool
//
// so a receiver can tell a corrupt, duplicated, reordered or misrouted
// packet from a good one without any shared state but the flow table.
const payloadHeaderLen = 16

// minPayload is the smallest payload any workload sends.
const minPayload = 64

// bodyPoolLen is the size of the seeded byte pool bodies are cut from. A
// body is a window into the pool at an offset derived from (tag, seq), so
// building a payload costs one copy and one CRC, not a PRNG call per byte.
const bodyPoolLen = 1 << 16

// generator turns a seed into the workload's inputs: which flow each
// operation uses and the bytes it carries. The program under test sees
// only the generated packets.
type generator struct {
	pool  []byte
	picks []uint32 // flow index per operation, cycled
	next  int
}

// pickMode is how a generator orders the flows of successive operations.
type pickMode int

const (
	// pickShuffled visits the flows round-robin in a seeded order.
	pickShuffled pickMode = iota
	// pickZipf draws flows from zipf(s) over a seeded permutation, so the
	// hot flows differ from seed to seed. The permutation keeps a flow's
	// class (tag mod zipfClasses): the workload gives each class one path
	// shape, so every seed's traffic has the same composition by shape and
	// only the concrete flows change.
	pickZipf
	// pickSequential walks the flows in index order from a seeded start.
	pickSequential
)

// newGenerator builds the generator for nflows flows with a pick table of
// npicks entries; zipfS is the exponent for pickZipf.
func newGenerator(seed int64, nflows, npicks int, mode pickMode, zipfS float64) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{pool: make([]byte, bodyPoolLen+maxPayload)}
	rng.Read(g.pool)
	perm := rng.Perm(nflows)
	g.picks = make([]uint32, npicks)
	switch {
	case mode == pickZipf && nflows > 1:
		byRank := classPreserving(perm, zipfClasses)
		z := rand.NewZipf(rng, zipfS, 1, uint64(nflows-1))
		for i := range g.picks {
			g.picks[i] = uint32(byRank[z.Uint64()])
		}
	case mode == pickSequential:
		for i := range g.picks {
			g.picks[i] = uint32((perm[0] + i) % nflows)
		}
	default:
		for i := range g.picks {
			g.picks[i] = uint32(perm[i%nflows])
		}
	}
	return g
}

// zipfClasses is how many path shapes a zipf workload distinguishes.
const zipfClasses = 8

// classPreserving turns a permutation into one that maps every index to a
// value of the same residue mod classes, keeping the permutation's order
// within each residue class.
func classPreserving(perm []int, classes int) []int {
	byClass := make([][]int, classes)
	for _, v := range perm {
		byClass[v%classes] = append(byClass[v%classes], v)
	}
	out := make([]int, len(perm))
	for i := range out {
		c := i % classes
		out[i], byClass[c] = byClass[c][0], byClass[c][1:]
	}
	return out
}

// maxPayload is the largest payload any workload sends.
const maxPayload = 1024

// pick returns the flow of the next operation.
func (g *generator) pick() uint32 {
	f := g.picks[g.next]
	g.next++
	if g.next == len(g.picks) {
		g.next = 0
	}
	return f
}

// fill writes the payload of operation seq on flow tag into buf, whose
// length is the payload size (>= minPayload).
func (g *generator) fill(buf []byte, tag uint32, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:4], tag)
	binary.BigEndian.PutUint64(buf[4:12], seq)
	off := int((uint64(tag)*0x9E3779B1 + seq*0x85EBCA77) % bodyPoolLen)
	copy(buf[payloadHeaderLen:], g.pool[off:])
	binary.BigEndian.PutUint32(buf[12:16], payloadCRC(buf))
}

func payloadCRC(p []byte) uint32 {
	c := crc32.Update(0, crc32.IEEETable, p[0:12])
	return crc32.Update(c, crc32.IEEETable, p[payloadHeaderLen:])
}

// parsePayload checks a received payload and returns its flow tag and
// sequence number; ok is false when the packet is truncated or its CRC
// does not match.
func parsePayload(p []byte) (tag uint32, seq uint64, ok bool) {
	if len(p) < minPayload {
		return 0, 0, false
	}
	if binary.BigEndian.Uint32(p[12:16]) != payloadCRC(p) {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint64(p[4:12]), true
}

// sequenceHash is the digest of the first n operations a seed generates
// for a workload shape: flow picks and payload bytes. Same seed, same
// digest; the generator's test pins that.
func sequenceHash(seed int64, nflows, npicks int, mode pickMode, zipfS float64, payloadLen, n int) string {
	g := newGenerator(seed, nflows, npicks, mode, zipfS)
	buf := make([]byte, payloadLen)
	h := sha256.New()
	for op := 0; op < n; op++ {
		g.fill(buf, g.pick(), uint64(op))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
