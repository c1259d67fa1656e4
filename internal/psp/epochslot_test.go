package psp

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"interedge/internal/cryptutil"
	"interedge/internal/wire"
)

// refRX is the receive epoch state as it was kept before the two fixed
// slots: a key map and a replay-window map, pruned when the epoch advances.
// It is the oracle TestEpochSlotsMatchReference checks RX against; its
// aeadForEpoch and commitEpoch are the replaced code, unchanged.
type refRX struct {
	master  cryptutil.Key
	dir     Direction
	baseSPI uint32
	epoch   uint32
	aeads   map[uint32]cipher.AEAD
	windows map[uint32]*replayWindow
}

func newRefRX(t *testing.T, master cryptutil.Key, dir Direction, baseSPI, epoch uint32) *refRX {
	aead, err := epochKey(master, dir, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return &refRX{master: master, dir: dir, baseSPI: baseSPI, epoch: epoch,
		aeads: map[uint32]cipher.AEAD{epoch: aead}, windows: map[uint32]*replayWindow{epoch: {}}}
}

func (r *refRX) aeadForEpoch(epoch uint32) (cipher.AEAD, *replayWindow, error) {
	if aead, ok := r.aeads[epoch]; ok {
		return aead, r.windows[epoch], nil
	}
	if epoch+1 < r.epoch {
		return nil, nil, ErrBadEpoch
	}
	aead, err := epochKey(r.master, r.dir, epoch)
	if err != nil {
		return nil, nil, err
	}
	return aead, nil, nil
}

func (r *refRX) commitEpoch(epoch uint32, aead cipher.AEAD) *replayWindow {
	if w, ok := r.windows[epoch]; ok {
		return w
	}
	r.aeads[epoch] = aead
	w := &replayWindow{}
	r.windows[epoch] = w
	if epoch > r.epoch {
		r.epoch = epoch
		for e := range r.aeads {
			if e+1 < epoch {
				delete(r.aeads, e)
				delete(r.windows, e)
			}
		}
	}
	return w
}

// openBatch is OpenBatch's passes over the reference state, reporting only
// which packets are accepted: resolve and authenticate every packet against
// the state at the start of the batch, then commit in order. A batch of one
// is OpenScratch.
func (r *refRX) openBatch(pkts [][]byte) []bool {
	type opened struct {
		epoch uint32
		aead  cipher.AEAD
		iv    uint64
		ok    bool
	}
	ops := make([]opened, len(pkts))
	for i, pkt := range pkts {
		var ph wire.PSPHeader
		n, err := ph.DecodeFromBytes(pkt)
		if err != nil || ph.SPI&^uint32(epochMask) != r.baseSPI || len(pkt) < n+2 {
			continue
		}
		aadEnd := n + 2
		ctLen := int(binary.BigEndian.Uint16(pkt[n:aadEnd]))
		if len(pkt) < aadEnd+ctLen || ctLen < 16 {
			continue
		}
		epoch := reconstructEpoch(r.epoch, ph.SPI&epochMask)
		aead, win, err := r.aeadForEpoch(epoch)
		if err != nil || win != nil && win.check(ph.IV) != nil {
			continue
		}
		var nonce [12]byte
		fillNonce(&nonce, ph.SPI, ph.IV)
		aad := append(append([]byte(nil), pkt[:aadEnd]...), pkt[aadEnd+ctLen:]...)
		if _, err := aead.Open(nil, nonce[:], pkt[aadEnd:aadEnd+ctLen], aad); err != nil {
			continue
		}
		ops[i] = opened{epoch: epoch, aead: aead, iv: ph.IV, ok: true}
	}
	accepted := make([]bool, len(pkts))
	for i, op := range ops {
		// The one intended difference: the maps would keep an epoch that a
		// newer epoch, committed earlier in this batch, left two behind —
		// a third live epoch. RX rejects that packet, as it rejects it when
		// the two arrive in separate calls.
		if !op.ok || op.epoch+1 < r.epoch {
			continue
		}
		w := r.commitEpoch(op.epoch, op.aead)
		if w.check(op.iv) != nil {
			continue
		}
		w.mark(op.iv)
		accepted[i] = true
	}
	return accepted
}

// epochScript is a random packet sequence from one sender: mostly in-order
// traffic, with rotations, jumps of several epochs, IV jumps past the
// replay window, late packets of the previous and of older epochs, forged
// epoch bytes and replays, cut into batches of one to eight.
func epochScript(t *testing.T, rng *rand.Rand, master cryptutil.Key, baseSPI, start uint32, events int) [][][]byte {
	senders := map[uint32]*TX{}
	sender := func(epoch uint32) *TX {
		if tx := senders[epoch]; tx != nil {
			return tx
		}
		tx, err := NewTXAt(master, DirInitiatorToResponder, baseSPI, epoch)
		if err != nil {
			t.Fatal(err)
		}
		senders[epoch] = tx
		return tx
	}
	seal := func(epoch uint32) []byte {
		pkt, err := sender(epoch).Seal(nil, []byte{byte(epoch), byte(rng.Intn(256))}, []byte("body"))
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	epoch := start
	var sent, batch [][]byte
	var batches [][][]byte
	for len(sent) < events {
		var pkt []byte
		switch k := rng.Intn(100); {
		case k < 55:
			pkt = seal(epoch)
		case k < 62:
			epoch++
			pkt = seal(epoch)
		case k < 65:
			epoch += 2 + uint32(rng.Intn(3))
			pkt = seal(epoch)
		case k < 67:
			sender(epoch).iv += replayBits + uint64(rng.Intn(replayBits))
			pkt = seal(epoch)
		case k < 77 && epoch > start:
			pkt = seal(epoch - 1)
		case k < 82 && epoch > start+1:
			pkt = seal(epoch - 2 - uint32(rng.Intn(int(min(epoch-start-1, 3)))))
		case k < 88:
			pkt = seal(epoch)
			pkt[3] = byte(rng.Intn(256)) // the SPI's epoch byte
		case len(sent) > 0:
			pkt = sent[rng.Intn(len(sent))]
		default:
			pkt = seal(epoch)
		}
		sent = append(sent, pkt)
		batch = append(batch, pkt)
		if rng.Intn(4) == 0 || len(batch) == 8 {
			batches, batch = append(batches, batch), nil
		}
	}
	return append(batches, batch)
}

// TestEpochSlotsMatchReference: random sequences get the same accept or
// reject, packet by packet, from RX and from the two-map reference — one
// packet at a time through OpenScratch, and in batches through OpenBatch —
// and leave both at the same epoch after every batch.
func TestEpochSlotsMatchReference(t *testing.T) {
	var master cryptutil.Key
	for i := range master {
		master[i] = byte(i * 5)
	}
	const baseSPI = 0x5107_00
	var accepted, advanced, wrapped int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := uint32(rng.Intn(3)) * 126 // 0, 126 or 252: the last crosses the epoch byte's wrap
		batches := epochScript(t, rng, master, baseSPI, start, 300)

		rx := func() *RX {
			r, err := NewRXAt(master, DirInitiatorToResponder, baseSPI, start)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		seqRX, batchRX := rx(), rx()
		seqRef := newRefRX(t, master, DirInitiatorToResponder, baseSPI, start)
		batchRef := newRefRX(t, master, DirInitiatorToResponder, baseSPI, start)
		var s Scratch
		var out []OpenResult
		for b, pkts := range batches {
			where := func(i int) string { return fmt.Sprintf("seed %d, batch %d, packet %d", seed, b, i) }
			for i, pkt := range pkts {
				_, _, err := seqRX.OpenScratch(&s, pkt)
				if want := seqRef.openBatch([][]byte{pkt})[0]; (err == nil) != want {
					t.Fatalf("%s: OpenScratch err = %v, the reference accepts: %v", where(i), err, want)
				}
			}
			out = append(out[:0], make([]OpenResult, len(pkts))...)
			batchRX.OpenBatch(&s, pkts, out)
			for i, want := range batchRef.openBatch(pkts) {
				if (out[i].Err == nil) != want {
					t.Fatalf("%s: OpenBatch err = %v, the reference accepts: %v", where(i), out[i].Err, want)
				}
				if want {
					accepted++
				}
			}
			if seqRX.Epoch() != seqRef.epoch || batchRX.Epoch() != batchRef.epoch {
				t.Fatalf("seed %d, batch %d: epochs %d and %d, the reference %d and %d",
					seed, b, seqRX.Epoch(), batchRX.Epoch(), seqRef.epoch, batchRef.epoch)
			}
		}
		if e := batchRX.Epoch(); e >= start+3 {
			advanced++
			if e > 0xFF {
				wrapped++
			}
		}
	}
	// A jump of more than one epoch across the epoch byte's wrap is not
	// reconstructed, so some sequences end their pipe early: in both.
	if accepted < 60*100 || advanced < 30 || wrapped == 0 {
		t.Fatalf("%d packets accepted, %d sequences advanced 3 epochs, %d wrapped: too tame", accepted, advanced, wrapped)
	}
}

// TestBatchRejectsEpochTwoBehindANewerOne: a batch carrying a jump to epoch
// e+2 and then a packet of e rejects the second, as two single opens do.
func TestBatchRejectsEpochTwoBehindANewerOne(t *testing.T) {
	var master cryptutil.Key
	const baseSPI = 0x7700
	seal := func(epoch uint32) []byte {
		tx, err := NewTXAt(master, DirInitiatorToResponder, baseSPI, epoch)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := tx.Seal(nil, []byte("h"), nil)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	rx, err := NewRXAt(master, DirInitiatorToResponder, baseSPI, 5)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	out := make([]OpenResult, 2)
	rx.OpenBatch(&s, [][]byte{seal(7), seal(5)}, out)
	if out[0].Err != nil || out[1].Err != ErrBadEpoch {
		t.Fatalf("errs = %v, %v; want nil, ErrBadEpoch", out[0].Err, out[1].Err)
	}
	if _, _, err := rx.Open(seal(6)); err != nil {
		t.Fatalf("previous epoch after the jump: %v", err)
	}
}
