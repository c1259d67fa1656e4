package sn

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// This file is the SN side of live drain and failover (DESIGN.md
// "Placement, drain, and failover"). A drain moves every designated host
// pipe — master secret, key epochs, and cache-warmth hints — to a sibling
// SN over the sealed inter-SN pipe (SvcHandoff), tells each host where to
// rebind (SvcPipeMove), and drops the local state. Hosts keep their keys;
// nobody re-handshakes unless a race or a death forces it.

// Placer maps a host to its drain target. Returning ok=false skips the
// peer (it is not a host this drain should move — e.g. a sibling SN or a
// gateway pipe).
type Placer func(host wire.Addr) (target wire.Addr, ok bool)

// Drain migrates every peer the placer claims to its target, counting one
// drain operation: sn_drain_started_total on entry, then completed or
// aborted depending on whether every handoff succeeded, with the wall
// duration observed into sn_drain_duration_ns. Individual handoff failures
// degrade to a plain teardown for that host — it re-establishes against
// its new SN via the normal handshake path — so a drain never strands a
// host; it only loses the no-re-handshake optimization.
//
// Drain blocks on inter-SN connects and must not be called from a packet
// handler; controllers run it on their own goroutine.
func (s *SN) Drain(place Placer) error {
	s.drainStarted.Add(1)
	start := time.Now()
	var failed int
	for _, p := range s.mgr.Peers() {
		target, ok := place(p.Addr)
		if !ok {
			continue
		}
		if err := s.HandoffPipe(p.Addr, target); err != nil {
			failed++
			s.cfg.Logf("sn %s: handoff of %s to %s failed (%v); dropping for re-establishment", s.Addr(), p.Addr, target, err)
			s.dropHostState(p.Addr)
		}
	}
	s.drainNs.Observe(uint64(time.Since(start)))
	if failed > 0 {
		s.drainAborted.Add(1)
		return fmt.Errorf("sn: drain moved with %d handoff failure(s), affected hosts fall back to re-establishment", failed)
	}
	s.drainCompleted.Add(1)
	return nil
}

// HandoffPipe moves one established host pipe to target: exports the pipe
// state, attaches up to wire.MaxHandoffWarmth decision-cache rules that
// forward to the host (the warmth hints), ships it over the sealed pipe to
// target, points the host at its successor, and finally drops local state.
// Ordering matters: the state reaches the target before the host learns to
// rebind, so the first packet the host sends at its new SN finds the
// imported pipe waiting.
func (s *SN) HandoffPipe(host, target wire.Addr) error {
	state, err := s.mgr.ExportPeer(host)
	if err != nil {
		return err
	}
	if len(state.Identity) != ed25519.PublicKeySize {
		return fmt.Errorf("sn: peer %s has no ed25519 identity to hand off", host)
	}
	hs := wire.HandoffState{
		Host:      state.Addr,
		Initiator: state.Initiator,
		BaseSPI:   state.BaseSPI,
		TxEpoch:   state.TxEpoch,
		RxEpoch:   state.RxEpoch,
		Warmth:    s.cache.CollectDest(host, wire.MaxHandoffWarmth),
	}
	copy(hs.Identity[:], state.Identity)
	copy(hs.Master[:], state.Master[:])
	enc, err := hs.Encode()
	if err != nil {
		return err
	}
	if err := s.mgr.Connect(target); err != nil {
		return fmt.Errorf("sn: no pipe to drain target %s: %w", target, err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcHandoff}
	if err := s.mgr.Send(target, &hdr, enc); err != nil {
		return fmt.Errorf("sn: handoff send to %s: %w", target, err)
	}
	move := wire.ILPHeader{Service: wire.SvcPipeMove}
	if err := s.mgr.Send(host, &move, wire.EncodePipeMove(target)); err != nil {
		return fmt.Errorf("sn: move notice to %s: %w", host, err)
	}
	s.dropHostState(host)
	return nil
}

// dropHostState removes the local pipe and every cached decision touching
// the host. Traffic still in flight toward this SN for the host falls back
// to the slow path, where resolution — already repointed by the ring
// change — forwards it to the successor.
func (s *SN) dropHostState(host wire.Addr) {
	s.mgr.DropPeer(host)
	s.cache.InvalidateSource(host)
	s.cache.InvalidateDest(host)
}

// NoteFailover counts one host re-placement forced by an unannounced SN
// death (sn_failovers_total). The placement controller calls it on the SN
// that absorbs the host.
func (s *SN) NoteFailover() { s.failovers.Add(1) }

// handleHandoff imports pipe state a draining sibling shipped us. Runs on
// an rx worker, so everything here is non-blocking.
func (s *SN) handleHandoff(src wire.Addr, payload []byte) {
	if s.cfg.AcceptHandoff == nil || !s.cfg.AcceptHandoff(src) {
		s.cfg.Logf("sn %s: rejected handoff from %s", s.Addr(), src)
		return
	}
	var hs wire.HandoffState
	if _, err := hs.DecodeFromBytes(payload); err != nil {
		s.cfg.Logf("sn %s: malformed handoff from %s: %v", s.Addr(), src, err)
		return
	}
	st := pipe.PipeState{
		Addr:      hs.Host,
		Identity:  ed25519.PublicKey(append([]byte(nil), hs.Identity[:]...)),
		Initiator: hs.Initiator,
		BaseSPI:   hs.BaseSPI,
		TxEpoch:   hs.TxEpoch,
		RxEpoch:   hs.RxEpoch,
	}
	copy(st.Master[:], hs.Master[:])
	if err := s.mgr.ImportPeer(st); err != nil {
		// ErrPeerExists means a full handshake with the host raced us and
		// won; its keys are fresher than the export, so losing is correct.
		s.cfg.Logf("sn %s: handoff import of %s from %s skipped: %v", s.Addr(), hs.Host, src, err)
		return
	}
	s.handoffPipes.Add(1)
	// Warmth hints: rules that forwarded to the host at the old SN keep
	// their flows on the fast path here from the first packet.
	toHost := cache.Action{Forward: []wire.Addr{hs.Host}} // Add copies it
	for _, k := range hs.Warmth {
		s.cache.Add(k, toHost)
	}
	s.cfg.Logf("sn %s: imported pipe for %s from %s (%d warm rules)", s.Addr(), hs.Host, src, len(hs.Warmth))
}
