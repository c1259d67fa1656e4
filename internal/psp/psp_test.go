package psp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"interedge/internal/cryptutil"
)

func pipePair(t testing.TB) (*PipeCrypto, *PipeCrypto) {
	t.Helper()
	master := cryptutil.NewRandomKey()
	init, err := NewPipeCrypto(master, true, 0xAB00)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewPipeCrypto(master, false, 0xAB00)
	if err != nil {
		t.Fatal(err)
	}
	return init, resp
}

func TestSealOpenRoundTrip(t *testing.T) {
	init, resp := pipePair(t)
	hdr := []byte("ilp-header-bytes")
	payload := []byte("application payload, opaque to the SN")
	pkt, err := init.TX.Seal(nil, hdr, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != SealedSize(len(hdr), len(payload)) {
		t.Fatalf("sealed size %d, want %d", len(pkt), SealedSize(len(hdr), len(payload)))
	}
	gotHdr, gotPayload, err := resp.RX.Open(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHdr, hdr) || !bytes.Equal(gotPayload, payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestBothDirectionsIndependent(t *testing.T) {
	init, resp := pipePair(t)
	p1, err := init.TX.Seal(nil, []byte("i2r"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := resp.TX.Seal(nil, []byte("r2i"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, err := resp.RX.Open(p1); err != nil || string(h) != "i2r" {
		t.Fatalf("responder open: %v %q", err, h)
	}
	if h, _, err := init.RX.Open(p2); err != nil || string(h) != "r2i" {
		t.Fatalf("initiator open: %v %q", err, h)
	}
	// A direction's own traffic must not decrypt on the same side.
	if _, _, err := init.RX.Open(p1); err == nil {
		t.Fatal("initiator decrypted its own i2r packet")
	}
}

func TestTamperedPacketRejected(t *testing.T) {
	init, resp := pipePair(t)
	pkt, err := init.TX.Seal(nil, []byte("header"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 5, 12, 14, len(pkt) - 1} {
		mut := append([]byte(nil), pkt...)
		mut[idx] ^= 0x01
		if _, _, err := resp.RX.Open(mut); err == nil {
			t.Fatalf("tampered byte %d accepted", idx)
		}
	}
}

// §4: ILP must be decryptable out of order (PSP requirement).
func TestPSPOutOfOrder(t *testing.T) {
	init, resp := pipePair(t)
	const n = 100
	pkts := make([][]byte, n)
	for i := range pkts {
		var err error
		pkts[i], err = init.TX.Seal(nil, []byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(n, func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	for _, p := range pkts {
		if _, _, err := resp.RX.Open(p); err != nil {
			t.Fatalf("out-of-order open failed: %v", err)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	init, resp := pipePair(t)
	pkt, err := init.TX.Seal(nil, []byte("once"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := resp.RX.Open(pkt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resp.RX.Open(pkt); err != ErrReplay {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

func TestReplayCheckDisabled(t *testing.T) {
	init, resp := pipePair(t)
	resp.RX.SetReplayCheck(false)
	pkt, _ := init.TX.Seal(nil, []byte("again"), nil)
	for i := 0; i < 3; i++ {
		if _, _, err := resp.RX.Open(pkt); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
}

func TestVeryOldPacketOutsideWindowRejected(t *testing.T) {
	init, resp := pipePair(t)
	old, _ := init.TX.Seal(nil, []byte("old"), nil)
	// Send replayBits+10 more packets, delivering only the last.
	var last []byte
	for i := 0; i < replayBits+10; i++ {
		last, _ = init.TX.Seal(nil, []byte("new"), nil)
	}
	if _, _, err := resp.RX.Open(last); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resp.RX.Open(old); err != ErrReplay {
		t.Fatalf("stale packet err = %v, want ErrReplay", err)
	}
}

func TestKeyRotationSenderFirst(t *testing.T) {
	init, resp := pipePair(t)
	pre, _ := init.TX.Seal(nil, []byte("epoch0"), nil)
	if err := init.TX.Rotate(); err != nil {
		t.Fatal(err)
	}
	post, _ := init.TX.Seal(nil, []byte("epoch1"), nil)
	// New-epoch packet arrives first; receiver learns epoch 1 lazily.
	if h, _, err := resp.RX.Open(post); err != nil || string(h) != "epoch1" {
		t.Fatalf("post-rotation open: %v %q", err, h)
	}
	// Previous-epoch packet still accepted during rotation.
	if h, _, err := resp.RX.Open(pre); err != nil || string(h) != "epoch0" {
		t.Fatalf("pre-rotation open: %v %q", err, h)
	}
}

func TestTwoEpochsBehindRejected(t *testing.T) {
	init, resp := pipePair(t)
	old, _ := init.TX.Seal(nil, []byte("e0"), nil)
	for i := 0; i < 2; i++ {
		if err := init.TX.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	cur, _ := init.TX.Seal(nil, []byte("e2"), nil)
	if _, _, err := resp.RX.Open(cur); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resp.RX.Open(old); err == nil {
		t.Fatal("epoch-0 packet accepted after two rotations")
	}
}

func TestManyRotationsIncludingEpochByteWrap(t *testing.T) {
	init, resp := pipePair(t)
	for i := 0; i < 300; i++ { // crosses the 256 epoch-low-byte wrap
		pkt, err := init.TX.Seal(nil, []byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h, _, err := resp.RX.Open(pkt); err != nil || h[0] != byte(i) {
			t.Fatalf("rotation %d: %v", i, err)
		}
		if err := init.TX.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWrongPipeKeyRejected(t *testing.T) {
	init, _ := pipePair(t)
	otherMaster := cryptutil.NewRandomKey()
	other, err := NewPipeCrypto(otherMaster, false, 0xAB00)
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := init.TX.Seal(nil, []byte("secret"), nil)
	if _, _, err := other.RX.Open(pkt); err == nil {
		t.Fatal("packet decrypted with wrong master key")
	}
}

func TestWrongSPIRejected(t *testing.T) {
	master := cryptutil.NewRandomKey()
	init, _ := NewPipeCrypto(master, true, 0xAB00)
	respOther, _ := NewPipeCrypto(master, false, 0xCD00)
	pkt, _ := init.TX.Seal(nil, []byte("x"), nil)
	if _, _, err := respOther.RX.Open(pkt); err == nil {
		t.Fatal("packet with foreign SPI accepted")
	}
}

func TestBaseSPIWithNonzeroLowByteRejected(t *testing.T) {
	master := cryptutil.NewRandomKey()
	if _, err := NewTX(master, DirInitiatorToResponder, 0xAB01); err == nil {
		t.Fatal("NewTX accepted SPI with nonzero low byte")
	}
	if _, err := NewRX(master, DirInitiatorToResponder, 0xAB01); err == nil {
		t.Fatal("NewRX accepted SPI with nonzero low byte")
	}
}

func TestTruncatedPacketsRejected(t *testing.T) {
	init, resp := pipePair(t)
	pkt, _ := init.TX.Seal(nil, []byte("header"), []byte("pay"))
	for cut := 0; cut < len(pkt)-len("pay"); cut++ {
		if _, _, err := resp.RX.Open(pkt[:cut]); err == nil {
			t.Fatalf("truncated packet (%d bytes) accepted", cut)
		}
	}
}

func TestSealAppendsToDst(t *testing.T) {
	init, resp := pipePair(t)
	prefix := []byte("existing")
	out, err := init.TX.Seal(prefix, []byte("h"), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Seal did not preserve dst prefix")
	}
	if _, _, err := resp.RX.Open(out[len(prefix):]); err != nil {
		t.Fatal(err)
	}
}

// Property: seal/open roundtrips for arbitrary header and payload contents.
func TestSealOpenProperty(t *testing.T) {
	init, resp := pipePair(t)
	resp.RX.SetReplayCheck(false)
	f := func(hdr, payload []byte) bool {
		if len(hdr) > 4096 {
			hdr = hdr[:4096]
		}
		pkt, err := init.TX.Seal(nil, hdr, payload)
		if err != nil {
			return false
		}
		gotHdr, gotPayload, err := resp.RX.Open(pkt)
		if err != nil {
			return false
		}
		return bytes.Equal(gotHdr, hdr) && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: replay window never accepts the same IV twice, regardless of
// arrival order.
func TestReplayWindowProperty(t *testing.T) {
	f := func(ivsRaw []uint16) bool {
		w := &replayWindow{}
		accepted := map[uint64]bool{}
		for _, raw := range ivsRaw {
			iv := uint64(raw)
			err := w.check(iv)
			if err == nil {
				if accepted[iv] {
					return false // double accept
				}
				accepted[iv] = true
				w.mark(iv)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeal(b *testing.B) {
	master := cryptutil.NewRandomKey()
	tx, _ := NewTX(master, DirInitiatorToResponder, 0)
	hdr := make([]byte, 32)
	payload := make([]byte, 1024)
	buf := make([]byte, 0, SealedSize(len(hdr), len(payload)))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Seal(buf[:0], hdr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	master := cryptutil.NewRandomKey()
	tx, _ := NewTX(master, DirInitiatorToResponder, 0)
	rx, _ := NewRX(master, DirInitiatorToResponder, 0)
	rx.SetReplayCheck(false)
	pkt, _ := tx.Seal(nil, make([]byte, 32), make([]byte, 1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rx.Open(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// Header-only encryption (the PSP model) vs whole-packet encryption: the
// design choice in §4 that lets the SN avoid re-encrypting payloads.
func BenchmarkAblationEncryptionScope(b *testing.B) {
	master := cryptutil.NewRandomKey()
	hdr := make([]byte, 32)
	payload := make([]byte, 1024)
	b.Run("header-only", func(b *testing.B) {
		tx, _ := NewTX(master, DirInitiatorToResponder, 0)
		buf := make([]byte, 0, SealedSize(len(hdr), len(payload)))
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := tx.Seal(buf[:0], hdr, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-packet", func(b *testing.B) {
		tx, _ := NewTX(master, DirInitiatorToResponder, 0)
		whole := make([]byte, len(hdr)+len(payload))
		buf := make([]byte, 0, SealedSize(len(whole), 0))
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := tx.Seal(buf[:0], whole, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
