// Batch-granular seal/open: the per-packet Seal/Open fast path pays a
// mutex round-trip and a cipher-state fetch per packet. RX workers receive
// vectored batches (recvmmsg), so the crypto layer can amortize that
// bookkeeping across the batch: one lock acquisition reserves a contiguous
// IV run for a whole sealed batch, and one lock pass resolves epochs and
// replay state for a whole received batch, reusing the cipher state across
// each run of packets carrying the same SPI.
package psp

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"interedge/internal/wire"
)

// OpenResult is the per-packet outcome of an OpenBatch call. On success
// Err is nil, Hdr holds the decrypted ILP header bytes (aliasing the
// Scratch arena, valid until its next batch use) and Payload aliases the
// input packet. HdrAt is where the header's ciphertext starts in the input
// packet: Hdr fits in that slot (the ciphertext is Hdr plus the tag), so a
// caller that owns the packet can copy Hdr there, and keep header and
// payload in one buffer. On failure only Err is set; other packets in the
// batch are unaffected.
type OpenResult struct {
	Hdr     []byte
	Payload []byte
	HdrAt   int
	Err     error
}

// openMeta carries one packet's parsed state between OpenBatch passes.
type openMeta struct {
	aead   cipher.AEAD
	epoch  uint32
	spi    uint32
	iv     uint64
	aadEnd int
	ctLen  int
	hdrOff int
	hdrLen int
	ok     bool
}

// reserveIVs allocates a contiguous run of n IVs under one lock and
// returns the SPI and cipher state they are bound to. Rotation between
// reservation and use is safe: the returned AEAD matches the returned
// SPI's epoch, so late seals simply go out under the older (still
// accepted) epoch.
func (t *TX) reserveIVs(n int) (spi uint32, iv uint64, aead cipher.AEAD) {
	t.mu.Lock()
	spi = t.baseSPI | (t.epoch & epochMask)
	iv = t.iv
	t.iv += uint64(n)
	aead = t.aead
	t.mu.Unlock()
	return spi, iv, aead
}

// StageSeal lays hdrPlain and payload out in pkt at their final wire
// offsets so a later SealStaged can encrypt in place without moving any
// bytes. pkt must be exactly SealedSize(len(hdrPlain), len(payload)) long;
// the PSP header, length field, and tag regions are left for SealStaged.
func StageSeal(pkt, hdrPlain, payload []byte) {
	aadEnd := wire.PSPHeaderSize + 2
	copy(pkt[aadEnd:], hdrPlain)
	copy(pkt[aadEnd+len(hdrPlain)+16:], payload)
}

// sealStagedOne seals one staged packet in place: writes the PSP header
// and ciphertext length, assembles the AAD in the scratch, and encrypts
// the header plaintext where it sits (cipher.AEAD.Seal with dst =
// plaintext[:0] is the sanctioned in-place form).
func (s *Scratch) sealStagedOne(aead cipher.AEAD, spi uint32, iv uint64, pkt []byte, hdrLen int) error {
	ph := wire.PSPHeader{SPI: spi, IV: iv}
	if _, err := ph.SerializeTo(pkt); err != nil {
		return err
	}
	ctLen := hdrLen + 16
	binary.BigEndian.PutUint16(pkt[wire.PSPHeaderSize:], uint16(ctLen))
	aadEnd := wire.PSPHeaderSize + 2
	if len(pkt) < aadEnd+ctLen {
		return wire.ErrTruncated
	}
	payload := pkt[aadEnd+ctLen:]
	aad := append(s.aad[:0], pkt[:aadEnd]...)
	aad = append(aad, payload...)
	s.aad = aad
	fillNonce(&s.nonce, spi, iv)
	hdrPlain := pkt[aadEnd : aadEnd+hdrLen]
	ct := aead.Seal(hdrPlain[:0], s.nonce[:], hdrPlain, aad)
	if len(ct) != ctLen {
		return fmt.Errorf("psp: internal: ciphertext length %d != %d", len(ct), ctLen)
	}
	return nil
}

// SealBatch seals len(hdrs) packets with a single cipher-state fetch and
// one contiguous IV reservation. dsts[i] is appended to exactly as
// SealScratch appends to dst, and the extended slices are written back
// into dsts. With a warm Scratch and dsts of sufficient capacity it
// performs no allocations.
func (t *TX) SealBatch(s *Scratch, dsts [][]byte, hdrs, payloads [][]byte) error {
	n := len(hdrs)
	if len(dsts) != n || len(payloads) != n {
		return fmt.Errorf("psp: SealBatch length mismatch: dsts=%d hdrs=%d payloads=%d",
			len(dsts), n, len(payloads))
	}
	if n == 0 {
		return nil
	}
	spi, iv, aead := t.reserveIVs(n)
	for i := 0; i < n; i++ {
		start := len(dsts[i])
		d := grow(dsts[i], SealedSize(len(hdrs[i]), len(payloads[i])))
		out := d[start:]
		StageSeal(out, hdrs[i], payloads[i])
		if err := s.sealStagedOne(aead, spi, iv+uint64(i), out, len(hdrs[i])); err != nil {
			return err
		}
		dsts[i] = d
	}
	return nil
}

// SealStaged seals packets previously laid out by StageSeal in place,
// consuming one contiguous IV run. pkts[i] must be exactly
// SealedSize(hdrLens[i], payloadLen) bytes with the header plaintext and
// payload already at their wire offsets. This is the egress coalescer's
// seal-at-flush path: packets are staged as they are enqueued and the
// whole pending batch is sealed with one cipher-state fetch when the
// batch flushes.
func (t *TX) SealStaged(s *Scratch, pkts [][]byte, hdrLens []int) error {
	n := len(pkts)
	if len(hdrLens) != n {
		return fmt.Errorf("psp: SealStaged length mismatch: pkts=%d hdrLens=%d", n, len(hdrLens))
	}
	if n == 0 {
		return nil
	}
	spi, iv, aead := t.reserveIVs(n)
	for i := 0; i < n; i++ {
		if err := s.sealStagedOne(aead, spi, iv+uint64(i), pkts[i], hdrLens[i]); err != nil {
			return err
		}
	}
	return nil
}

// OpenBatch parses and authenticates a batch of sealed packets, writing
// one OpenResult per packet into out (which must be at least len(pkts)
// long). Failures are isolated per packet: a corrupt, replayed, or
// truncated packet mid-batch sets only its own Err and never affects the
// rest of the run.
//
// The lock-bound work is amortized: one locked pass resolves epochs,
// fetches cipher state (reused across each run of packets with the same
// SPI), and pre-checks replay windows for the whole batch; the AEAD opens
// then run lock-free into a single pre-sized arena; a final locked pass
// commits epochs and marks replay windows, so a duplicated IV within one
// batch is rejected exactly as it would be sequentially. With a warm
// Scratch it performs no steady-state allocations.
//
// Returned Hdr slices alias the Scratch arena and are valid until its
// next batch use; Payload slices alias the input packets. OpenBatch never
// writes its input, so the same sealed packets can be opened again (and be
// rejected as replays).
func (r *RX) OpenBatch(s *Scratch, pkts [][]byte, out []OpenResult) {
	n := len(pkts)
	out = out[:n]
	metas := s.metas[:0]

	// Pass 1 (lock-free): parse PSP headers and bounds; size the header
	// arena for the whole batch so per-packet opens never reallocate (a
	// realloc would invalidate Hdr slices already handed out).
	total := 0
	for i := 0; i < n; i++ {
		out[i] = OpenResult{}
		var m openMeta
		var ph wire.PSPHeader
		hn, err := ph.DecodeFromBytes(pkts[i])
		if err == nil && ph.SPI&^uint32(epochMask) != r.baseSPI {
			err = ErrBadSPI
		}
		if err == nil && len(pkts[i]) < hn+2 {
			err = wire.ErrTruncated
		}
		if err == nil {
			m.ctLen = int(binary.BigEndian.Uint16(pkts[i][hn : hn+2]))
			m.aadEnd = hn + 2
			if len(pkts[i]) < m.aadEnd+m.ctLen || m.ctLen < 16 {
				err = wire.ErrTruncated
			}
		}
		if err != nil {
			out[i].Err = err
		} else {
			m.spi, m.iv, m.ok = ph.SPI, ph.IV, true
			total += m.ctLen - 16
		}
		metas = append(metas, m)
	}
	s.metas = metas

	// Pass 2 (one lock): resolve epochs and fetch cipher state, reusing
	// the previous packet's state across an equal-SPI run, and pre-check
	// replay windows.
	r.mu.Lock()
	replay := r.replayCheck
	var (
		lastSPI   uint32
		lastEpoch uint32
		lastAead  cipher.AEAD
		lastWin   *replayWindow
		haveLast  bool
	)
	for i := range metas {
		m := &metas[i]
		if !m.ok {
			continue
		}
		if !haveLast || m.spi != lastSPI {
			epoch := reconstructEpoch(r.cur.epoch, m.spi&epochMask)
			aead, win, aerr := r.aeadForEpoch(epoch)
			if aerr != nil {
				out[i].Err = aerr
				m.ok = false
				haveLast = false
				continue
			}
			lastSPI, lastEpoch, lastAead, lastWin, haveLast = m.spi, epoch, aead, win, true
		}
		m.epoch, m.aead = lastEpoch, lastAead
		if replay && lastWin != nil {
			if rerr := lastWin.check(m.iv); rerr != nil {
				out[i].Err = rerr
				m.ok = false
			}
		}
	}
	r.mu.Unlock()

	// Pass 3 (lock-free): AEAD-open every surviving packet into the arena.
	arena := s.arena[:0]
	if cap(arena) < total {
		arena = make([]byte, 0, total)
	}
	for i := range metas {
		m := &metas[i]
		if !m.ok {
			continue
		}
		pkt := pkts[i]
		ct := pkt[m.aadEnd : m.aadEnd+m.ctLen]
		payload := pkt[m.aadEnd+m.ctLen:]
		aad := append(s.aad[:0], pkt[:m.aadEnd]...)
		aad = append(aad, payload...)
		s.aad = aad
		fillNonce(&s.nonce, m.spi, m.iv)
		off := len(arena)
		plain, err := m.aead.Open(arena[off:off], s.nonce[:], ct, aad)
		if err != nil {
			out[i].Err = ErrAuthFailed
			m.ok = false
			continue
		}
		m.hdrOff, m.hdrLen = off, len(plain)
		arena = arena[:off+len(plain)]
	}
	s.arena = arena

	// Pass 4 (one lock): commit epochs and mark replay windows. The
	// re-check under lock catches both concurrent opens of the same IV
	// and duplicates within this batch.
	r.mu.Lock()
	for i := range metas {
		m := &metas[i]
		if !m.ok {
			continue
		}
		win := r.commitEpoch(m.epoch, m.aead)
		if win == nil {
			out[i].Err = ErrBadEpoch
			m.ok = false
			continue
		}
		if replay {
			if rerr := win.check(m.iv); rerr != nil {
				out[i].Err = rerr
				m.ok = false
				continue
			}
			win.mark(m.iv)
		}
	}
	r.mu.Unlock()

	for i := range metas {
		m := &metas[i]
		if m.ok {
			out[i].Hdr = arena[m.hdrOff : m.hdrOff+m.hdrLen]
			out[i].Payload = pkts[i][m.aadEnd+m.ctLen:]
			out[i].HdrAt = m.aadEnd
		}
	}
}
