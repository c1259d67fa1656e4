package cryptutil

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 5869 Appendix A, Test Case 1 (SHA-256).
func TestHKDFRFC5869Vector1(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	wantOKM, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	okm, err := HKDF(ikm, salt, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

// RFC 5869 Appendix A, Test Case 3 (zero-length salt and info).
func TestHKDFRFC5869Vector3(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM, _ := hex.DecodeString("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	okm, err := HKDF(ikm, nil, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

func TestHKDFExpandTooLong(t *testing.T) {
	if _, err := HKDF(make([]byte, 32), nil, nil, 255*32+1); err == nil {
		t.Fatal("expected error for oversized expand")
	}
}

func TestDeriveKeyDeterministicAndDomainSeparated(t *testing.T) {
	secret := []byte("master secret")
	k1, err := DeriveKey(secret, nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	k1again, err := DeriveKey(secret, nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := DeriveKey(secret, nil, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Equal(k1again) {
		t.Fatal("same inputs produced different keys")
	}
	if k1.Equal(k2) {
		t.Fatal("different info produced identical keys")
	}
	if k1.Zero() {
		t.Fatal("derived key is zero")
	}
}

func TestDeriveKeysIndependent(t *testing.T) {
	keys, err := DeriveKeys([]byte("s"), nil, "multi", 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Key]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatal("duplicate key in DeriveKeys output")
		}
		seen[k] = true
	}
}

func TestKeyZero(t *testing.T) {
	var z Key
	if !z.Zero() {
		t.Fatal("zero key not detected")
	}
	if NewRandomKey().Zero() {
		t.Fatal("random key reported zero")
	}
}

func TestX25519SharedAgreement(t *testing.T) {
	a, err := NewStaticKeypair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStaticKeypair()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := X25519Shared(a.Private, b.PublicKeyBytes())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := X25519Shared(b.Private, a.PublicKeyBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("X25519 shared secrets disagree")
	}
}

func TestX25519BadPublicKey(t *testing.T) {
	a, err := NewStaticKeypair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := X25519Shared(a.Private, []byte("short")); err == nil {
		t.Fatal("expected error for malformed public key")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("join group 42")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("other"), sig) {
		t.Fatal("signature over wrong message accepted")
	}
	sig[0] ^= 1
	if Verify(kp.Public, msg, sig) {
		t.Fatal("corrupted signature accepted")
	}
	if Verify(nil, msg, sig) {
		t.Fatal("nil public key accepted")
	}
}

func TestRandomBytesLengthAndVariety(t *testing.T) {
	a := RandomBytes(32)
	b := RandomBytes(32)
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	if bytes.Equal(a, b) {
		t.Fatal("two random draws identical")
	}
}

// Property: HKDF output depends on every input.
func TestHKDFSensitivityProperty(t *testing.T) {
	f := func(secret, salt, info []byte, flip uint8) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		out1, err := HKDF(secret, salt, info, 32)
		if err != nil {
			return false
		}
		mutated := append([]byte(nil), secret...)
		mutated[int(flip)%len(mutated)] ^= 0xFF
		out2, err := HKDF(mutated, salt, info, 32)
		if err != nil {
			return false
		}
		return !bytes.Equal(out1, out2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
