// Package cryptutil provides the cryptographic primitives shared by ILP,
// PSP, the handshake, tunnels, and enclaves: RFC 5869 HKDF key derivation,
// X25519 key agreement, Ed25519 signing helpers, and fixed-size symmetric
// key types.
//
// Everything here wraps the Go standard library; there are no external
// dependencies.
package cryptutil

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
)

// KeySize is the size in bytes of all symmetric keys in the system
// (AES-256-GCM).
const KeySize = 32

// Key is a 256-bit symmetric key.
type Key [KeySize]byte

// Zero reports whether the key is all zeros (i.e., unset).
func (k Key) Zero() bool {
	var z Key
	return subtle.ConstantTimeCompare(k[:], z[:]) == 1
}

// Equal reports whether two keys are equal in constant time.
func (k Key) Equal(other Key) bool {
	return subtle.ConstantTimeCompare(k[:], other[:]) == 1
}

// NewRandomKey returns a fresh random Key. It panics if the system entropy
// source fails, which is unrecoverable.
func NewRandomKey() Key {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		panic(fmt.Sprintf("cryptutil: entropy source failed: %v", err))
	}
	return k
}

// HKDF performs Extract-then-Expand per RFC 5869 with SHA-256.
func HKDF(secret, salt, info []byte, length int) ([]byte, error) {
	return hkdf.Key(sha256.New, secret, salt, string(info), length)
}

// DeriveKey derives a single symmetric Key from secret bound to info. Salt
// may be nil.
func DeriveKey(secret, salt []byte, info string) (Key, error) {
	var k Key
	out, err := HKDF(secret, salt, []byte(info), KeySize)
	if err != nil {
		return k, err
	}
	copy(k[:], out)
	return k, nil
}

// DeriveKeys derives n independent symmetric keys from secret, each bound to
// info and its index.
func DeriveKeys(secret, salt []byte, info string, n int) ([]Key, error) {
	keys := make([]Key, n)
	for i := range keys {
		k, err := DeriveKey(secret, salt, fmt.Sprintf("%s/%d", info, i))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// StaticKeypair is a long-lived X25519 keypair identifying a node (host, SN,
// or tunnel endpoint).
type StaticKeypair struct {
	Private *ecdh.PrivateKey
	Public  *ecdh.PublicKey
}

// NewStaticKeypair generates a fresh X25519 keypair.
func NewStaticKeypair() (StaticKeypair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return StaticKeypair{}, fmt.Errorf("cryptutil: generate X25519 key: %w", err)
	}
	return StaticKeypair{Private: priv, Public: priv.PublicKey()}, nil
}

// PublicKeyBytes returns the 32-byte encoding of the public key.
func (kp StaticKeypair) PublicKeyBytes() []byte {
	return kp.Public.Bytes()
}

// X25519Shared computes the shared secret between a private key and a peer's
// 32-byte public key encoding.
func X25519Shared(priv *ecdh.PrivateKey, peerPub []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("cryptutil: bad peer public key: %w", err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("cryptutil: X25519: %w", err)
	}
	return shared, nil
}

// SigningKeypair is an Ed25519 keypair used for ownership statements in the
// lookup service and join authorizations.
type SigningKeypair struct {
	Private ed25519.PrivateKey
	Public  ed25519.PublicKey
}

// NewSigningKeypair generates a fresh Ed25519 keypair.
func NewSigningKeypair() (SigningKeypair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return SigningKeypair{}, fmt.Errorf("cryptutil: generate Ed25519 key: %w", err)
	}
	return SigningKeypair{Private: priv, Public: pub}, nil
}

// Sign signs msg with the private key.
func (kp SigningKeypair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.Private, msg)
}

// Verify checks sig over msg against pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic(fmt.Sprintf("cryptutil: entropy source failed: %v", err))
	}
	return b
}
