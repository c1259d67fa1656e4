package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestDatagramStaysThreeWords pins the size of a receive-queue slot: every
// transport queue and pipe worker queue is a channel of Datagrams, thousands
// deep per node, so a word added here is heap added per host.
func TestDatagramStaysThreeWords(t *testing.T) {
	if n := unsafe.Sizeof(Datagram{}); n != 72 {
		t.Fatalf("unsafe.Sizeof(wire.Datagram{}) = %d, want 72", n)
	}
}

// TestRxClassesMatchTheAllocator: a pool miss must be the block append would
// have allocated anyway, so every class is a capacity append really returns,
// and the table maps each length to the class append would pick for it.
func TestRxClassesMatchTheAllocator(t *testing.T) {
	for i, size := range rxClassSizes {
		if got := cap(append([]byte(nil), make([]byte, size)...)); got != size {
			t.Errorf("class %d: append of %d bytes has capacity %d; the runtime's size classes moved", i, size, got)
		}
		if i > 0 {
			n := rxClassSizes[i-1] + 1
			if got := rxClassSizes[rxClassOf[(n+7)>>3]]; got != size {
				t.Errorf("a %d-byte copy is filed under class %d, want %d", n, got, size)
			}
		}
	}
	if rxClassSizes[len(rxClassSizes)-1] != rxClassMax || rxClassMax < MTU {
		t.Fatalf("largest class %d must be rxClassMax (%d) and hold an MTU payload (%d)", rxClassSizes[len(rxClassSizes)-1], rxClassMax, MTU)
	}
}

// TestRxCopyReusesWhatWasReleased walks the pool's contract: a copy is
// always exact and exclusively the caller's; a released buffer serves a later
// copy of its class (checked outside race builds, where sync.Pool drops Puts
// at random); buffers of no class are ignored; and nothing is shared.
func TestRxCopyReusesWhatWasReleased(t *testing.T) {
	src := make([]byte, 300)
	for i := range src {
		src[i] = byte(i * 7)
	}
	a := RxCopy(src)
	if !bytes.Equal(a, src) || &a[0] == &src[0] {
		t.Fatal("RxCopy did not return an exact private copy")
	}
	if cap(a) != 320 {
		t.Fatalf("a miss for 300 bytes has capacity %d, want append's own 320", cap(a))
	}
	first := &a[0]
	RxRelease(a[:10]) // the whole buffer goes back whatever the length left on the slice
	b := RxCopy(src[:290])
	if !bytes.Equal(b, src[:290]) {
		t.Fatal("a recycled buffer carries the wrong bytes")
	}
	if !poisonReleased && &b[0] != first {
		t.Error("a released buffer was not reused by the next copy of its class")
	}
	c := RxCopy(src[:290])
	if &c[0] == &b[0] {
		t.Fatal("one released buffer was handed out twice")
	}
	if got := RxCopy(nil); got != nil {
		t.Errorf("RxCopy(nil) = %v, want nil", got)
	}
	RxRelease(nil)
	RxRelease(make([]byte, 4))            // below the smallest class
	RxRelease(make([]byte, rxClassMax+1)) // above the largest
	// A buffer between classes is filed under the one below it, so it never
	// serves a request it is too small for.
	odd := make([]byte, 100, 100)
	RxRelease(odd)
	if d := RxCopy(src[:100]); len(d) != 100 || cap(d) < 100 {
		t.Fatalf("copy of 100 bytes has len %d cap %d", len(d), cap(d))
	}
}

// TestRxCopyMissCostsOneAllocation pins the two allocation facts the
// end-to-end budgets rest on: a miss is one allocation (no handle object
// beside the buffer), and release-then-copy is none.
func TestRxCopyMissCostsOneAllocation(t *testing.T) {
	if poisonReleased {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	src := make([]byte, 1100)
	var sink []byte
	if n := testing.AllocsPerRun(200, func() { sink = RxCopy(src) }); n != 1 {
		t.Errorf("a pool miss allocated %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		RxRelease(sink)
		sink = RxCopy(src)
	}); n != 0 {
		t.Errorf("release + copy allocated %.0f times, want 0", n)
	}
}

// BenchmarkRxCopyMiss is what a receiver that never releases pays per
// datagram: the count check and the allocation it always paid.
func BenchmarkRxCopyMiss(b *testing.B) {
	src := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = RxCopy(src)
	}
}

func BenchmarkRxCopyRecycled(b *testing.B) {
	src := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = RxCopy(src)
		RxRelease(benchSink)
	}
}

var benchSink []byte
