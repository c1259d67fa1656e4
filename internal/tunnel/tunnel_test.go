package tunnel

import (
	"testing"
	"time"

	"interedge/internal/cryptutil"
)

func peerKey(t testing.TB) []byte {
	t.Helper()
	kp, err := cryptutil.NewStaticKeypair()
	if err != nil {
		t.Fatal(err)
	}
	return kp.PublicKeyBytes()
}

func TestNewTunnelDerivesKeys(t *testing.T) {
	tn, err := NewTunnel(peerKey(t), time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	send, recv := tn.Keys()
	if send.Zero() || recv.Zero() {
		t.Fatal("zero transport keys")
	}
	if send.Equal(recv) {
		t.Fatal("send and recv keys identical")
	}
}

func TestBadPeerKeyRejected(t *testing.T) {
	if _, err := NewTunnel([]byte("short"), time.Unix(0, 0)); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestRotationChangesKeys(t *testing.T) {
	tn, err := NewTunnel(peerKey(t), time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	s1, r1 := tn.Keys()
	if err := tn.Rotate(time.Unix(180, 0)); err != nil {
		t.Fatal(err)
	}
	s2, r2 := tn.Keys()
	if s1.Equal(s2) || r1.Equal(r2) {
		t.Fatal("rotation did not change keys")
	}
	if tn.Rotations() != 1 {
		t.Fatalf("rotations = %d", tn.Rotations())
	}
	if got := tn.LastRotation(); !got.Equal(time.Unix(180, 0)) {
		t.Fatalf("last rotation = %v, want the rotation's time", got)
	}
}

// Independent tunnels derive independent keys.
func TestTunnelsIndependent(t *testing.T) {
	now := time.Unix(0, 0)
	t1, err := NewTunnel(peerKey(t), now)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTunnel(peerKey(t), now)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := t1.Keys()
	s2, _ := t2.Keys()
	if s1.Equal(s2) {
		t.Fatal("two tunnels derived the same key")
	}
}

func BenchmarkRotation(b *testing.B) {
	tn, err := NewTunnel(peerKey(b), time.Unix(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tn.Rotate(time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
}
