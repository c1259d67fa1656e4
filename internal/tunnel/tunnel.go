// Package tunnel implements WireGuard-style encrypted tunnels for the
// Appendix C direct-peering benchmark: "we benchmark Wireguard, a widely
// used VPN tunnel. A commodity (16-core) server could easily maintain
// 98,000 simultaneous tunnels, each doing symmetric key rotation every
// three minutes."
//
// Each tunnel keeps a chaining key in the WireGuard spirit: a rotation
// generates a fresh ephemeral X25519 key, mixes the Diffie-Hellman result
// into the chain with HKDF, and derives new symmetric send/receive keys.
// The benchmark's tunnel.rotation_us row times one Rotate, and
// tunnel.core_fraction_10k scales it to 10 000 tunnels rotating every
// three minutes.
package tunnel

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"interedge/internal/cryptutil"
)

// Tunnel is one encrypted tunnel endpoint.
type Tunnel struct {
	mu      sync.Mutex
	peerPub []byte
	chain   []byte
	sendKey cryptutil.Key
	recvKey cryptutil.Key
	lastRot time.Time
	rotated uint64
}

// NewTunnel creates a tunnel to the peer with the given static public key,
// performing the initial handshake rotation at time now.
func NewTunnel(peerPub []byte, now time.Time) (*Tunnel, error) {
	if len(peerPub) != 32 {
		return nil, errors.New("tunnel: peer public key must be 32 bytes")
	}
	t := &Tunnel{
		peerPub: append([]byte(nil), peerPub...),
		chain:   []byte("interedge-tunnel-init"),
	}
	if err := t.Rotate(now); err != nil {
		return nil, err
	}
	t.rotated = 0 // the initial handshake is not a "rotation"
	return t, nil
}

// Rotate performs one symmetric key rotation: fresh ephemeral, DH with the
// peer's static key, HKDF chain update, and new transport keys. This is
// the real cryptographic work the Appendix C benchmark measures.
func (t *Tunnel) Rotate(now time.Time) error {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("tunnel: ephemeral: %w", err)
	}
	dh, err := cryptutil.X25519Shared(eph, t.peerPub)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	chain, err := cryptutil.HKDF(dh, t.chain, []byte("interedge-tunnel-chain"), 32)
	if err != nil {
		return err
	}
	send, err := cryptutil.DeriveKey(chain, nil, "tunnel-send")
	if err != nil {
		return err
	}
	recv, err := cryptutil.DeriveKey(chain, nil, "tunnel-recv")
	if err != nil {
		return err
	}
	t.chain = chain
	t.sendKey = send
	t.recvKey = recv
	t.lastRot = now
	t.rotated++
	return nil
}

// LastRotation returns the time of the last rotation.
func (t *Tunnel) LastRotation() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastRot
}

// Rotations returns the number of rotations performed.
func (t *Tunnel) Rotations() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rotated
}

// Keys returns the current transport keys (tests verify they change).
func (t *Tunnel) Keys() (send, recv cryptutil.Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sendKey, t.recvKey
}
