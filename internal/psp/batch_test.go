package psp

import (
	"bytes"
	"fmt"
	"testing"
)

func sealBatchPackets(t *testing.T, tx *TX, n int) (pkts [][]byte, hdrs, payloads [][]byte) {
	t.Helper()
	var s Scratch
	hdrs = make([][]byte, n)
	payloads = make([][]byte, n)
	dsts := make([][]byte, n)
	for i := range hdrs {
		hdrs[i] = []byte(fmt.Sprintf("hdr-%02d-bytes", i))
		payloads[i] = []byte(fmt.Sprintf("payload-%02d with some body", i))
	}
	if err := tx.SealBatch(&s, dsts, hdrs, payloads); err != nil {
		t.Fatal(err)
	}
	return dsts, hdrs, payloads
}

func TestSealBatchOpenBatchRoundTrip(t *testing.T) {
	init, resp := pipePair(t)
	const n = 16
	pkts, hdrs, payloads := sealBatchPackets(t, init.TX, n)
	var s Scratch
	out := make([]OpenResult, n)
	resp.RX.OpenBatch(&s, pkts, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("packet %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Hdr, hdrs[i]) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("packet %d: roundtrip mismatch", i)
		}
	}
}

// TestOpenBatchLeavesItsInputAlone: OpenBatch writes nothing into the
// packets it opens, so the same sealed packets can be opened again (a
// replay, and a benchmark's loop), and it reports each header's slot: the
// bytes its ciphertext occupies, where a caller that owns the packet may
// copy the opened header.
func TestOpenBatchLeavesItsInputAlone(t *testing.T) {
	init, resp := pipePair(t)
	const n = 8
	pkts, hdrs, payloads := sealBatchPackets(t, init.TX, n)
	before := make([][]byte, n)
	for i := range pkts {
		before[i] = bytes.Clone(pkts[i])
	}
	var s Scratch
	out := make([]OpenResult, n)
	resp.RX.OpenBatch(&s, pkts, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("packet %d: %v", i, r.Err)
		}
		if !bytes.Equal(pkts[i], before[i]) {
			t.Fatalf("OpenBatch wrote into packet %d", i)
		}
		ctLen := len(pkts[i]) - len(r.Payload) - r.HdrAt
		if ctLen != len(hdrs[i])+16 {
			t.Fatalf("packet %d: HdrAt %d names a %d-byte slot, want the %d-byte ciphertext before the payload",
				i, r.HdrAt, ctLen, len(hdrs[i])+16)
		}
		slot := pkts[i][r.HdrAt:]
		copy(slot, r.Hdr)
		if !bytes.Equal(slot[:len(r.Hdr)], hdrs[i]) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("packet %d: the header copied into its slot disturbed the payload", i)
		}
	}
	resp.RX.OpenBatch(&s, before, out)
	for i, r := range out {
		if r.Err == nil {
			t.Fatalf("packet %d opened twice", i)
		}
	}
}

func TestSealBatchInteropWithSequentialOpen(t *testing.T) {
	// Packets sealed by SealBatch must be indistinguishable from Seal'd
	// packets to a sequential receiver, and vice versa.
	init, resp := pipePair(t)
	pkts, hdrs, payloads := sealBatchPackets(t, init.TX, 8)
	for i, pkt := range pkts {
		h, p, err := resp.RX.Open(pkt)
		if err != nil {
			t.Fatalf("sequential open of batch-sealed packet %d: %v", i, err)
		}
		if !bytes.Equal(h, hdrs[i]) || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("packet %d: mismatch", i)
		}
	}
	// And sequentially sealed packets open fine as a batch.
	seq := make([][]byte, 4)
	for i := range seq {
		var err error
		seq[i], err = init.TX.Seal(nil, []byte("seq-hdr"), []byte("seq-payload"))
		if err != nil {
			t.Fatal(err)
		}
	}
	var s Scratch
	out := make([]OpenResult, len(seq))
	resp.RX.OpenBatch(&s, seq, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("batch open of sequentially sealed packet %d: %v", i, r.Err)
		}
	}
}

func TestOpenBatchCorruptMidBatchIsolated(t *testing.T) {
	init, resp := pipePair(t)
	const n = 8
	pkts, hdrs, _ := sealBatchPackets(t, init.TX, n)
	// Corrupt one packet's ciphertext mid-batch and truncate another.
	pkts[3][len(pkts[3])-1] ^= 0xFF
	pkts[5] = pkts[5][:4]
	var s Scratch
	out := make([]OpenResult, n)
	resp.RX.OpenBatch(&s, pkts, out)
	for i, r := range out {
		switch i {
		case 3:
			if r.Err != ErrAuthFailed {
				t.Fatalf("packet 3: err=%v, want ErrAuthFailed", r.Err)
			}
		case 5:
			if r.Err == nil {
				t.Fatal("packet 5: truncated packet opened")
			}
		default:
			if r.Err != nil {
				t.Fatalf("packet %d poisoned by mid-batch corruption: %v", i, r.Err)
			}
			if !bytes.Equal(r.Hdr, hdrs[i]) {
				t.Fatalf("packet %d: header mismatch", i)
			}
		}
	}
}

func TestOpenBatchReplayWithinBatch(t *testing.T) {
	init, resp := pipePair(t)
	pkts, _, _ := sealBatchPackets(t, init.TX, 4)
	// Duplicate packet 1 into slot 2: the second occurrence must be
	// rejected exactly as it would be by sequential opens.
	pkts[2] = pkts[1]
	var s Scratch
	out := make([]OpenResult, len(pkts))
	resp.RX.OpenBatch(&s, pkts, out)
	if out[1].Err != nil {
		t.Fatalf("first occurrence: %v", out[1].Err)
	}
	if out[2].Err != ErrReplay {
		t.Fatalf("duplicate IV within batch: err=%v, want ErrReplay", out[2].Err)
	}
	if out[0].Err != nil || out[3].Err != nil {
		t.Fatalf("unrelated packets affected: %v %v", out[0].Err, out[3].Err)
	}
}

func TestOpenBatchAcrossRotation(t *testing.T) {
	// A batch can interleave packets from two epochs (sender rotated
	// mid-stream); each SPI run fetches its own cipher state.
	init, resp := pipePair(t)
	old, _, _ := sealBatchPackets(t, init.TX, 2)
	if err := init.TX.Rotate(); err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := sealBatchPackets(t, init.TX, 2)
	mixed := [][]byte{old[0], fresh[0], old[1], fresh[1]}
	var s Scratch
	out := make([]OpenResult, len(mixed))
	resp.RX.OpenBatch(&s, mixed, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("packet %d across rotation: %v", i, r.Err)
		}
	}
}

func TestSealStagedRoundTrip(t *testing.T) {
	init, resp := pipePair(t)
	hdr := []byte("staged-header")
	payload := []byte("staged payload bytes")
	pkt := make([]byte, SealedSize(len(hdr), len(payload)))
	StageSeal(pkt, hdr, payload)
	var s Scratch
	if err := init.TX.SealStaged(&s, [][]byte{pkt}, []int{len(hdr)}); err != nil {
		t.Fatal(err)
	}
	h, p, err := resp.RX.Open(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h, hdr) || !bytes.Equal(p, payload) {
		t.Fatal("staged seal roundtrip mismatch")
	}
}
