// Package psp implements PSP-style per-packet encryption for ILP pipes
// (§4 of the paper). Design goals, mirroring Google's PSP:
//
//   - Stateless per packet: every packet carries an SPI identifying the key
//     and a unique IV, so packets are independently decryptable even when
//     they arrive out of order or after loss.
//   - Header-only encryption: only the ILP header is encrypted with the
//     pipe's shared key; application payload is authenticated (covered by
//     the AEAD tag) but not re-encrypted, since endpoints already protect it
//     with their own keys.
//   - Cheap rotation: keys are derived per epoch from a pipe master secret;
//     the low byte of the SPI carries the epoch so a receiver can accept the
//     current and previous epoch during rotation without coordination.
//
// Wire layout produced by TX.Seal and consumed by RX.Open:
//
//	PSP header (12) | hdrCTLen (2) | ILP header ciphertext+tag | payload
package psp

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"interedge/internal/cryptutil"
	"interedge/internal/wire"
)

// Overhead is the number of bytes Seal adds on top of header plaintext and
// payload: the PSP header, the header-ciphertext length field, and the GCM
// tag.
const Overhead = wire.PSPHeaderSize + 2 + 16

// Epoch numbers wrap at 256; the SPI's low byte carries epoch mod 256.
const epochMask = 0xFF

// Direction labels bind each direction of a pipe to an independent key
// schedule derived from the same master secret.
type Direction string

// The two directions of a pipe, from the perspective of the handshake
// initiator.
const (
	DirInitiatorToResponder Direction = "i2r"
	DirResponderToInitiator Direction = "r2i"
)

// Errors returned by Open.
var (
	ErrBadEpoch   = errors.New("psp: packet epoch not current or previous")
	ErrReplay     = errors.New("psp: replayed or too-old IV")
	ErrAuthFailed = errors.New("psp: authentication failed")
	// ErrBadSPI rejects a packet whose SPI names another pipe. It is a
	// sentinel, not a formatted error, so a flood of wrong-SPI packets
	// makes no garbage.
	ErrBadSPI = errors.New("psp: SPI does not match pipe")
)

func epochKey(master cryptutil.Key, dir Direction, epoch uint32) (cipher.AEAD, error) {
	info := fmt.Sprintf("interedge-psp/%s/epoch-%d", dir, epoch)
	k, err := cryptutil.DeriveKey(master[:], nil, info)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func fillNonce(n *[12]byte, spi uint32, iv uint64) {
	binary.BigEndian.PutUint32(n[0:4], spi)
	binary.BigEndian.PutUint64(n[4:12], iv)
}

// Scratch holds the reusable working buffers (AAD assembly, decrypted
// header, nonce) for the zero-allocation Seal/Open fast path. Each
// pipeline worker owns one Scratch and threads it through every packet it
// processes; a Scratch is NOT safe for concurrent use. Header bytes
// returned by OpenScratch alias the Scratch and are overwritten by the
// next OpenScratch call.
type Scratch struct {
	aad   []byte
	hdr   []byte
	nonce [12]byte

	// Batch state (OpenBatch): decrypted headers for a whole batch land in
	// one arena so per-packet opens never reallocate, and per-packet
	// bookkeeping lives in metas. Both persist across calls for reuse.
	arena []byte
	metas []openMeta
}

// grow returns dst extended by need bytes, reusing capacity when
// available. The extension is returned uninitialized; callers must
// overwrite every byte.
func grow(dst []byte, need int) []byte {
	if n := len(dst) + need; n <= cap(dst) {
		return dst[:n]
	}
	return append(dst, make([]byte, need)...)
}

// TX is the sending half of one direction of a pipe. It is safe for
// concurrent use.
type TX struct {
	mu      sync.Mutex
	master  cryptutil.Key
	dir     Direction
	baseSPI uint32
	epoch   uint32
	iv      uint64
	aead    cipher.AEAD
}

// NewTX creates the sending state for one pipe direction. baseSPI's low
// byte is reserved for the epoch and must be zero.
func NewTX(master cryptutil.Key, dir Direction, baseSPI uint32) (*TX, error) {
	if baseSPI&epochMask != 0 {
		return nil, fmt.Errorf("psp: baseSPI low byte must be zero, got %#x", baseSPI)
	}
	aead, err := epochKey(master, dir, 0)
	if err != nil {
		return nil, err
	}
	return &TX{master: master, dir: dir, baseSPI: baseSPI, aead: aead}, nil
}

// NewTXAt creates sending state resuming at a given epoch with a fresh IV
// space. Used when pipe state migrates between SNs: the importer resumes
// one epoch above the exporter's, so the IV sequence the exporter consumed
// is never reused under the same key.
func NewTXAt(master cryptutil.Key, dir Direction, baseSPI, epoch uint32) (*TX, error) {
	if baseSPI&epochMask != 0 {
		return nil, fmt.Errorf("psp: baseSPI low byte must be zero, got %#x", baseSPI)
	}
	aead, err := epochKey(master, dir, epoch)
	if err != nil {
		return nil, err
	}
	return &TX{master: master, dir: dir, baseSPI: baseSPI, epoch: epoch, aead: aead}, nil
}

// Rotate advances to the next key epoch. Packets already sealed remain
// decryptable by receivers until they rotate twice.
func (t *TX) Rotate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := t.epoch + 1
	aead, err := epochKey(t.master, t.dir, next)
	if err != nil {
		return err
	}
	t.epoch = next
	t.aead = aead
	t.iv = 0
	return nil
}

// Epoch returns the current sending epoch.
func (t *TX) Epoch() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// SealedSize returns the wire size of a packet with the given header and
// payload lengths.
func SealedSize(hdrLen, payloadLen int) int { return Overhead + hdrLen + payloadLen }

// Seal encrypts hdrPlain and authenticates payload, appending the full wire
// packet to dst and returning the extended slice. Each call consumes one IV.
func (t *TX) Seal(dst, hdrPlain, payload []byte) ([]byte, error) {
	var s Scratch
	return t.SealScratch(&s, dst, hdrPlain, payload)
}

// SealScratch is Seal with caller-provided working buffers: with a warm
// Scratch and a dst of sufficient capacity it performs no allocations.
// This is the pipe-terminus re-encrypt fast path.
func (t *TX) SealScratch(s *Scratch, dst, hdrPlain, payload []byte) ([]byte, error) {
	t.mu.Lock()
	spi := t.baseSPI | (t.epoch & epochMask)
	iv := t.iv
	t.iv++
	aead := t.aead
	t.mu.Unlock()

	ph := wire.PSPHeader{SPI: spi, IV: iv}
	start := len(dst)
	need := SealedSize(len(hdrPlain), len(payload))
	dst = grow(dst, need)
	out := dst[start:]
	if _, err := ph.SerializeTo(out); err != nil {
		return nil, err
	}
	ctLen := len(hdrPlain) + 16
	binary.BigEndian.PutUint16(out[wire.PSPHeaderSize:], uint16(ctLen))
	// AAD covers the cleartext prefix and the payload, binding them to the
	// encrypted header. The two regions are not contiguous on the wire
	// (the ciphertext sits between them), so they are assembled in the
	// scratch buffer.
	aadEnd := wire.PSPHeaderSize + 2
	payloadStart := aadEnd + ctLen
	copy(out[payloadStart:], payload)
	aad := append(s.aad[:0], out[:aadEnd]...)
	aad = append(aad, payload...)
	s.aad = aad
	fillNonce(&s.nonce, spi, iv)
	ct := aead.Seal(out[aadEnd:aadEnd], s.nonce[:], hdrPlain, aad)
	if len(ct) != ctLen {
		return nil, fmt.Errorf("psp: internal: ciphertext length %d != %d", len(ct), ctLen)
	}
	return dst, nil
}

// replayWindow tracks seen IVs per epoch with a sliding bitmap, rejecting
// duplicates and packets older than the window.
type replayWindow struct {
	maxIV  uint64
	seen   bool
	bitmap [replayWords]uint64
}

const (
	replayBits  = 1024
	replayWords = replayBits / 64
)

func (w *replayWindow) check(iv uint64) error {
	if !w.seen {
		return nil
	}
	if iv > w.maxIV {
		return nil
	}
	diff := w.maxIV - iv
	if diff >= replayBits {
		return ErrReplay
	}
	if w.bitmap[diff/64]&(1<<(diff%64)) != 0 {
		return ErrReplay
	}
	return nil
}

func (w *replayWindow) mark(iv uint64) {
	if !w.seen {
		w.seen = true
		w.maxIV = iv
		w.bitmap = [replayWords]uint64{}
		w.bitmap[0] = 1
		return
	}
	if iv > w.maxIV {
		shift := iv - w.maxIV
		if shift >= replayBits {
			w.bitmap = [replayWords]uint64{}
		} else {
			for ; shift > 0; shift-- {
				carryShift(&w.bitmap)
			}
		}
		w.maxIV = iv
		w.bitmap[0] |= 1
		return
	}
	diff := w.maxIV - iv
	if diff < replayBits {
		w.bitmap[diff/64] |= 1 << (diff % 64)
	}
}

func carryShift(b *[replayWords]uint64) {
	var carry uint64
	for i := 0; i < replayWords; i++ {
		next := b[i] >> 63
		b[i] = b[i]<<1 | carry
		carry = next
	}
}

// epochSlot is one receive epoch: its key and its replay window. A slot
// with a nil aead is empty.
type epochSlot struct {
	epoch uint32
	aead  cipher.AEAD
	win   replayWindow
}

// RX is the receiving half of one direction of a pipe. It accepts the
// current and the immediately previous key epoch, and (optionally) enforces
// anti-replay per epoch. Safe for concurrent use.
type RX struct {
	mu      sync.Mutex
	master  cryptutil.Key
	dir     Direction
	baseSPI uint32
	// cur is the highest epoch authenticated so far and is never empty;
	// prev holds epoch cur.epoch-1, or is empty until a packet of that
	// epoch authenticates.
	cur, prev   epochSlot
	replayCheck bool
}

// NewRX creates the receiving state for one pipe direction.
func NewRX(master cryptutil.Key, dir Direction, baseSPI uint32) (*RX, error) {
	if baseSPI&epochMask != 0 {
		return nil, fmt.Errorf("psp: baseSPI low byte must be zero, got %#x", baseSPI)
	}
	return NewRXAt(master, dir, baseSPI, 0)
}

// NewRXAt creates receiving state resuming at a given epoch. Earlier
// epochs are rejected exactly as if the receiver had rotated past them; the
// replay window for the resumed epoch starts empty, so an importer must
// resume at the epoch the peer currently sends on (duplicates of packets
// the exporter already consumed will be re-accepted once — callers that
// need exactly-once semantics handle duplication above the pipe, as the
// substrate can duplicate datagrams anyway).
func NewRXAt(master cryptutil.Key, dir Direction, baseSPI, epoch uint32) (*RX, error) {
	if baseSPI&epochMask != 0 {
		return nil, fmt.Errorf("psp: baseSPI low byte must be zero, got %#x", baseSPI)
	}
	aead, err := epochKey(master, dir, epoch)
	if err != nil {
		return nil, err
	}
	return &RX{
		master:      master,
		dir:         dir,
		baseSPI:     baseSPI,
		cur:         epochSlot{epoch: epoch, aead: aead},
		replayCheck: true,
	}, nil
}

// Epoch returns the highest receive epoch observed so far.
func (r *RX) Epoch() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.epoch
}

// SetReplayCheck enables or disables anti-replay enforcement. It is on by
// default; benchmarks that replay a single sealed packet disable it.
func (r *RX) SetReplayCheck(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replayCheck = on
}

// reconstructEpoch rebuilds a full epoch number from its low byte relative
// to the highest epoch seen so far (cur).
func reconstructEpoch(cur, low uint32) uint32 {
	epoch := (cur &^ uint32(epochMask)) | low
	switch {
	case epoch > cur+1 && epoch >= 0x100:
		epoch -= 0x100
	case epoch+0x100 <= cur+1:
		epoch += 0x100
	}
	return epoch
}

// slot returns the slot holding epoch, or nil.
func (r *RX) slot(epoch uint32) *epochSlot {
	switch {
	case epoch == r.cur.epoch:
		return &r.cur
	case epoch == r.prev.epoch && r.prev.aead != nil:
		return &r.prev
	}
	return nil
}

// aeadForEpoch returns the AEAD and replay window for an already-tracked
// epoch, or derives a tentative AEAD (win == nil) for an acceptable but
// unseen one — any newer epoch (the sender may have rotated several times
// before sending) or the immediately previous epoch; anything older is
// rejected. It never mutates receiver state: the epoch slots are only
// touched by commitEpoch AFTER the packet authenticates. Committing on first
// sight would let a single corrupted or forged SPI byte advance the epoch
// and evict the live keys, permanently killing the pipe.
func (r *RX) aeadForEpoch(epoch uint32) (cipher.AEAD, *replayWindow, error) {
	if sl := r.slot(epoch); sl != nil {
		return sl.aead, &sl.win, nil
	}
	if epoch+1 < r.cur.epoch {
		return nil, nil, ErrBadEpoch
	}
	aead, err := epochKey(r.master, r.dir, epoch)
	if err != nil {
		return nil, nil, err
	}
	return aead, nil, nil
}

// commitEpoch records an authenticated packet's epoch and returns its
// replay window. A newer epoch becomes current, and the old current stays
// as previous only if it is the epoch just before; the previous epoch fills
// the empty previous slot. Idempotent (concurrent opens of the same new
// epoch both commit). It returns nil for an epoch older than the previous
// one, which a newer epoch committed since aeadForEpoch passed it: that
// packet is rejected as if it had arrived after the newer one. Must be
// called with r.mu held.
func (r *RX) commitEpoch(epoch uint32, aead cipher.AEAD) *replayWindow {
	if sl := r.slot(epoch); sl != nil {
		return &sl.win
	}
	switch {
	case epoch > r.cur.epoch:
		r.prev = epochSlot{}
		if epoch == r.cur.epoch+1 {
			r.prev = r.cur
		}
		r.cur = epochSlot{epoch: epoch, aead: aead}
		return &r.cur.win
	case epoch+1 == r.cur.epoch:
		r.prev = epochSlot{epoch: epoch, aead: aead}
		return &r.prev.win
	}
	return nil
}

// Open parses and authenticates a sealed packet, returning the decrypted
// ILP header bytes and the (aliased) payload bytes.
func (r *RX) Open(packet []byte) (hdrPlain, payload []byte, err error) {
	var s Scratch
	return r.OpenScratch(&s, packet)
}

// OpenScratch is Open with caller-provided working buffers: with a warm
// Scratch it performs no steady-state allocations. The returned header
// bytes alias the Scratch and are only valid until its next use; the
// payload aliases packet as with Open.
func (r *RX) OpenScratch(s *Scratch, packet []byte) (hdrPlain, payload []byte, err error) {
	var ph wire.PSPHeader
	n, err := ph.DecodeFromBytes(packet)
	if err != nil {
		return nil, nil, err
	}
	if ph.SPI&^uint32(epochMask) != r.baseSPI {
		return nil, nil, ErrBadSPI
	}
	if len(packet) < n+2 {
		return nil, nil, wire.ErrTruncated
	}
	ctLen := int(binary.BigEndian.Uint16(packet[n : n+2]))
	aadEnd := n + 2
	if len(packet) < aadEnd+ctLen {
		return nil, nil, wire.ErrTruncated
	}
	ct := packet[aadEnd : aadEnd+ctLen]
	payload = packet[aadEnd+ctLen:]

	// Epoch-aligned IV handling must be serialized; the AEAD open itself
	// runs outside the lock.
	epochLow := ph.SPI & epochMask
	r.mu.Lock()
	epoch := reconstructEpoch(r.cur.epoch, epochLow)
	aead, win, aerr := r.aeadForEpoch(epoch)
	if aerr != nil {
		r.mu.Unlock()
		return nil, nil, aerr
	}
	// win is nil for a not-yet-committed epoch (no replays possible yet);
	// the authoritative check happens after authentication in any case.
	if r.replayCheck && win != nil {
		if rerr := win.check(ph.IV); rerr != nil {
			r.mu.Unlock()
			return nil, nil, rerr
		}
	}
	r.mu.Unlock()

	aad := append(s.aad[:0], packet[:aadEnd]...)
	aad = append(aad, payload...)
	s.aad = aad
	fillNonce(&s.nonce, ph.SPI, ph.IV)
	hdrPlain, err = aead.Open(s.hdr[:0], s.nonce[:], ct, aad)
	if err != nil {
		return nil, nil, ErrAuthFailed
	}
	s.hdr = hdrPlain

	r.mu.Lock()
	win = r.commitEpoch(epoch, aead)
	if win == nil {
		r.mu.Unlock()
		return nil, nil, ErrBadEpoch
	}
	if r.replayCheck {
		// Re-validate under lock: a concurrent Open of the same IV may have
		// won the race between check and mark.
		if rerr := win.check(ph.IV); rerr != nil {
			r.mu.Unlock()
			return nil, nil, rerr
		}
		win.mark(ph.IV)
	}
	r.mu.Unlock()
	return hdrPlain, payload, nil
}

// PipeCrypto bundles both directions of a pipe for one endpoint.
type PipeCrypto struct {
	TX *TX
	RX *RX
}

// NewPipeCrypto derives the send and receive state for one endpoint of a
// pipe from the shared master secret. The initiator sends on the i2r
// schedule and receives on r2i; the responder is the mirror image. baseSPI
// must match on both ends.
func NewPipeCrypto(master cryptutil.Key, initiator bool, baseSPI uint32) (*PipeCrypto, error) {
	return NewPipeCryptoAt(master, initiator, baseSPI, 0, 0)
}

// NewPipeCryptoAt derives pipe crypto resuming at explicit epochs, for an
// endpoint importing established pipe state during a drain handoff. The
// peer keeps accepting because receivers admit any newer TX epoch without
// coordination.
func NewPipeCryptoAt(master cryptutil.Key, initiator bool, baseSPI, txEpoch, rxEpoch uint32) (*PipeCrypto, error) {
	txDir, rxDir := DirInitiatorToResponder, DirResponderToInitiator
	if !initiator {
		txDir, rxDir = rxDir, txDir
	}
	tx, err := NewTXAt(master, txDir, baseSPI, txEpoch)
	if err != nil {
		return nil, err
	}
	rx, err := NewRXAt(master, rxDir, baseSPI, rxEpoch)
	if err != nil {
		return nil, err
	}
	return &PipeCrypto{TX: tx, RX: rx}, nil
}
