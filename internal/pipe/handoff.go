package pipe

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"interedge/internal/cryptutil"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

// PipeState is the portable state of one established pipe: everything a
// sibling node needs to resume the pipe without a fresh handshake. Exported
// by the draining side, imported by its successor (normally after a trip
// through the wire.HandoffState codec over a sealed inter-SN pipe).
type PipeState struct {
	// Addr is the peer the pipe connects to (the host, from an SN's view).
	Addr wire.Addr
	// Identity is the peer's verified ed25519 public key.
	Identity ed25519.PublicKey
	// Master is the handshake-derived master secret.
	Master cryptutil.Key
	// Initiator reports whether the EXPORTING node initiated the handshake;
	// the importer takes over that role's key schedule.
	Initiator bool
	// BaseSPI is the pipe's base SPI (low byte zero).
	BaseSPI uint32
	// TxEpoch is the exporter's sending epoch at export time. ImportPeer
	// resumes at TxEpoch+1 so the exporter's consumed IV space is never
	// reused under the same key.
	TxEpoch uint32
	// RxEpoch is the highest epoch the exporter observed from the peer; the
	// importer's receiver resumes there.
	RxEpoch uint32
}

// Errors returned by the handoff API.
var (
	ErrPeerExists = errors.New("pipe: peer already established")
)

// ExportPeer snapshots the established pipe local→remote as portable
// state. The pipe remains usable afterwards; a draining caller typically
// follows up with DropPeer once the state has been delivered to the
// successor.
func (e *Engine) ExportPeer(local, remote wire.Addr) (PipeState, error) {
	p := e.peer(pipeKey{local: local, remote: remote})
	if p == nil {
		return PipeState{}, fmt.Errorf("%w: %s", ErrNoPipe, remote)
	}
	return PipeState{
		Addr:      remote,
		Identity:  p.identity,
		Master:    p.master,
		Initiator: p.initiator,
		BaseSPI:   p.baseSPI,
		TxEpoch:   p.crypto.TX.Epoch(),
		RxEpoch:   p.crypto.RX.Epoch(),
	}, nil
}

// ImportPeer installs an established pipe from local to state.Addr from
// exported state, resuming TX one epoch above the exporter's (fresh IV
// space) and RX at the peer's current sending epoch. Receivers accept any
// newer epoch, so the peer needs no notification to keep the pipe flowing.
//
// If the pipe already exists, ImportPeer refuses with ErrPeerExists and
// changes nothing: a concurrent full handshake (e.g. the peer re-established
// on its own while the handoff was in flight) carries fresher keys than the
// export, and must win. Handshake establishment, by contrast, always
// replaces — both ends install the same fresh result, so every race
// converges with exactly one live key schedule per pipe.
func (e *Engine) ImportPeer(local wire.Addr, state PipeState) error {
	ep := e.endpoint(local)
	if ep == nil {
		return fmt.Errorf("pipe: no endpoint %s on engine", local)
	}
	crypto, err := psp.NewPipeCryptoAt(state.Master, state.Initiator, state.BaseSPI,
		state.TxEpoch+1, state.RxEpoch)
	if err != nil {
		return err
	}
	key := pipeKey{local: local, remote: state.Addr}
	p := &peer{
		key:       key,
		identity:  state.Identity,
		crypto:    crypto,
		up:        e.cfg.Clock.Now(),
		master:    state.Master,
		initiator: state.Initiator,
		baseSPI:   state.BaseSPI,
		ep:        ep,
	}
	p.lastRx.Store(p.up.UnixNano())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrManagerClosed
	}
	if e.peer(key) != nil {
		return fmt.Errorf("%w: %s", ErrPeerExists, state.Addr)
	}
	e.setPeer(key, p)
	return nil
}

// RebindPeer moves the endpoint's established pipe from oldRemote to
// newRemote, keeping its keys: the host side of a drain, invoked when the
// serving SN announces its successor (SvcPipeMove). The sending epoch
// rotates so the successor's fresh replay window only ever sees new IVs from
// us.
//
// Like ImportPeer it refuses to clobber: if a pipe to newRemote already
// exists (a full handshake with the successor raced the move and won, with
// fresher keys), the rebind fails with ErrPeerExists and the old entry is
// left alone for normal teardown.
func (e *Engine) RebindPeer(local, oldRemote, newRemote wire.Addr) error {
	oldKey := pipeKey{local: local, remote: oldRemote}
	newKey := pipeKey{local: local, remote: newRemote}
	e.mu.Lock()
	old := e.peer(oldKey)
	if old == nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoPipe, oldRemote)
	}
	if e.peer(newKey) != nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPeerExists, newRemote)
	}
	p := &peer{
		key:       newKey,
		identity:  old.identity,
		crypto:    old.crypto,
		up:        e.cfg.Clock.Now(),
		master:    old.master,
		initiator: old.initiator,
		baseSPI:   old.baseSPI,
		ep:        old.ep,
	}
	p.txPackets.Store(old.txPackets.Load())
	p.rxPackets.Store(old.rxPackets.Load())
	p.txBytes.Store(old.txBytes.Load())
	p.rxBytes.Store(old.rxBytes.Load())
	p.lastRx.Store(p.up.UnixNano())
	e.setPeer(oldKey, nil)
	e.setPeer(newKey, p)
	e.mu.Unlock()
	return p.crypto.TX.Rotate()
}
