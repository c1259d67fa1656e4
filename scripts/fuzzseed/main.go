// Command fuzzseed harvests fuzz corpus entries from live soak traffic.
//
// It runs a shortened soak scenario with a wire capture tap, then writes
// the captured packets as Go fuzz seed files:
//
//   - whole encoded datagrams      -> internal/wire/testdata/fuzz/FuzzDatagramDecode/
//   - ILP headers built from the
//     observed traffic shapes      -> internal/wire/testdata/fuzz/FuzzILPHeaderDecode/
//   - inter-edomain transit
//     service data between the
//     observed addresses           -> internal/wire/testdata/fuzz/FuzzTransitDecode/
//   - PSP packets inside ILP
//     frames (frame byte stripped) -> internal/psp/testdata/fuzz/FuzzPSPOpen/
//
// Seeds are deterministic (fixed scenario, fixed substrate seed), so
// re-running rewrites the same files. The checked-in corpus gives the CI
// fuzz smoke runs realistic sealed-traffic shapes instead of only the
// hand-written f.Add seeds.
//
//	go run ./scripts/fuzzseed            # write under the repo root
//	go run ./scripts/fuzzseed -root DIR  # write under DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"interedge/internal/services/ipfwd"
	"interedge/internal/soak"
	"interedge/internal/wire"
)

const perTarget = 8

func main() {
	root := flag.String("root", ".", "repository root to write testdata under")
	flag.Parse()

	cap := &soak.WireCapture{Max: 1024}
	sc := soak.Scenarios()["steady-diurnal"]
	sc.SimDuration = 2 * time.Minute
	res, err := soak.Run(sc, 1, soak.WithCapture(cap))
	if err != nil {
		fatal("capture soak: %v", err)
	}
	dgs := cap.Datagrams()
	fmt.Printf("capture soak: sim=%.0fs wall=%.2fs captured=%d datagrams\n",
		res.Stats.SimSeconds, res.Stats.WallSeconds, len(dgs))
	if len(dgs) == 0 {
		fatal("no datagrams captured")
	}

	var datagrams, pspPkts, ilpHdrs [][]byte
	seenDG := map[string]bool{}
	seenPSP := map[string]bool{}
	for _, dg := range dgs {
		enc, err := dg.Encode()
		if err != nil {
			continue
		}
		// Prefer variety: key whole datagrams by frame type + length so
		// the corpus spans handshakes, keepalives, and data of several
		// sizes rather than eight near-identical packets.
		if len(dg.Payload) > 0 {
			dgKey := fmt.Sprintf("%d/%d", dg.Payload[0], len(enc))
			if !seenDG[dgKey] && len(datagrams) < perTarget {
				seenDG[dgKey] = true
				datagrams = append(datagrams, enc)
			}
			if wire.FrameType(dg.Payload[0]) == wire.FrameILP {
				psp := dg.Payload[1:]
				pspKey := strconv.Itoa(len(psp))
				if !seenPSP[pspKey] && len(pspPkts) < perTarget {
					seenPSP[pspKey] = true
					pspPkts = append(pspPkts, append([]byte(nil), psp...))
				}
			}
		}
	}

	// ILP headers ride encrypted inside the PSP packets, so they cannot
	// be lifted from the wire; rebuild the header shapes the soak traffic
	// actually used — echo with empty service data, ipfwd destinations
	// drawn from captured addresses — plus the control service.
	addrs := map[wire.Addr]bool{}
	for _, dg := range dgs {
		addrs[dg.Dst] = true
	}
	conn := wire.ConnectionID(1)
	for addr := range addrs {
		if len(ilpHdrs) >= perTarget-2 {
			break
		}
		h := wire.ILPHeader{Service: wire.SvcIPFwd, Conn: conn, Data: ipfwd.DestData(addr)}
		conn++
		if enc, err := h.Encode(); err == nil {
			ilpHdrs = append(ilpHdrs, enc)
		}
	}
	for _, h := range []wire.ILPHeader{
		{Service: wire.SvcEcho, Conn: 7},
		{Service: wire.SvcControl, Conn: 1, Data: []byte("soak")},
	} {
		if enc, err := h.Encode(); err == nil {
			ilpHdrs = append(ilpHdrs, enc)
		}
	}

	// Handoff states ride sealed SvcHandoff frames between SNs, so like
	// the ILP headers they cannot be lifted from the wire; rebuild the
	// shapes a live drain produces — hosts and warmth sources drawn from
	// the captured addresses, key epochs and SPIs varied per seed.
	addrList := make([]wire.Addr, 0, len(addrs))
	for a := range addrs {
		addrList = append(addrList, a)
	}
	sort.Slice(addrList, func(i, j int) bool { return addrList[i].Less(addrList[j]) })
	var handoffs [][]byte
	for i := 0; i < perTarget && i < len(addrList); i++ {
		hs := wire.HandoffState{
			Host:      addrList[i],
			Initiator: i%2 == 0,
			BaseSPI:   uint32(i+1) << 8,
			TxEpoch:   uint32(i * 3),
			RxEpoch:   uint32(i),
		}
		for j := range hs.Identity {
			hs.Identity[j] = byte(i + j)
			hs.Master[j] = byte(i*7 + j + 1)
		}
		// Warmth counts span empty through several flows per host.
		for w := 0; w < i && w < wire.MaxHandoffWarmth; w++ {
			hs.Warmth = append(hs.Warmth, wire.FlowKey{
				Src:     addrList[(i+w+1)%len(addrList)],
				Service: wire.SvcEcho,
				Conn:    wire.ConnectionID(w + 1),
			})
		}
		if enc, err := hs.Encode(); err == nil {
			handoffs = append(handoffs, enc)
		}
	}

	// Transit service data (final SN, original source, nested header) is
	// header plaintext as well: wrap the rebuilt headers between captured
	// addresses, as an ingress SN's ipfwd does for a cross-edomain flow.
	var transits [][]byte
	for i, enc := range ilpHdrs {
		var inner wire.ILPHeader
		if _, err := inner.DecodeFromBytes(enc); err != nil {
			continue
		}
		outer, err := wire.TransitHeader(addrList[i%len(addrList)], addrList[(i+1)%len(addrList)], &inner)
		if err == nil { // the control header above is refused: it may not ride in transit
			transits = append(transits, outer.Data)
		}
	}

	write := func(dir string, seeds [][]byte) {
		full := filepath.Join(*root, dir)
		if err := os.MkdirAll(full, 0o755); err != nil {
			fatal("mkdir %s: %v", full, err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			name := filepath.Join(full, fmt.Sprintf("soak-capture-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				fatal("write %s: %v", name, err)
			}
		}
		fmt.Printf("wrote %d seeds under %s\n", len(seeds), full)
	}
	write("internal/wire/testdata/fuzz/FuzzDatagramDecode", datagrams)
	write("internal/wire/testdata/fuzz/FuzzILPHeaderDecode", ilpHdrs)
	write("internal/wire/testdata/fuzz/FuzzHandoffDecode", handoffs)
	write("internal/wire/testdata/fuzz/FuzzTransitDecode", transits)
	write("internal/psp/testdata/fuzz/FuzzPSPOpen", pspPkts)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
