package wire

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The receive-buffer pool. A transport copies every inbound datagram for
// its receiver (RxCopy), and a receiver that holds no reference to the copy
// any more may hand it back (RxRelease) so the next datagram of that size is
// copied into it instead of into a fresh allocation. Nothing has to come
// back: a buffer that is kept is an ordinary heap object, collected as ever.
//
// Three properties are deliberate:
//
//   - The classes are the Go allocator's own size classes, so the buffer a
//     miss allocates — append's — is exactly the block it would have been
//     without a pool, and a receiver that never releases pays no extra
//     memory per packet.
//   - A class that holds nothing is one atomic load away from the plain
//     allocation: the per-class count is read before the sync.Pool is, and
//     a traffic mix that never releases (every packet a miss, a host's
//     receive path) never touches the pool at all.
//   - The pool stores a pointer to the buffer's first byte, which fits an
//     interface word; the class supplies the length back. A miss is one
//     allocation and a release is none — there is no handle object.

// rxClassSizes are the allocator's size classes up to the first one that
// holds a full-MTU datagram (runtime/sizeclasses.go). Were the runtime's
// table to change, buffers would still be filed under the largest class
// they can serve; only the "a miss costs what it cost" property would blur.
var rxClassSizes = [...]int{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768,
	896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200,
	3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472,
}

const rxClassMax = 9472

type rxClass struct {
	// avail counts the buffers released into pool and not drawn since. It
	// can read high (the collector empties sync.Pools; the race runtime
	// drops some Puts) and is then corrected one failed Get at a time.
	//
	// It is written on every release and every hit, by whichever CPUs the
	// two run on, so it sits alone on its cache line however the array is
	// aligned: sharing one with the pool's read-mostly fields (or with a
	// neighbouring class) cost interedomain-mix +1 µs unloaded latency.
	_     [64]byte
	avail atomic.Int32
	_     [60]byte
	pool  sync.Pool // of *byte: the first byte of a buffer of at least the class size
}

var (
	rxClasses [len(rxClassSizes)]rxClass
	// rxClassOf maps (n+7)/8 to the smallest class that holds n bytes.
	rxClassOf [rxClassMax/8 + 1]uint8
)

func init() {
	c := 0
	for i := range rxClassOf {
		for rxClassSizes[c] < i*8 {
			c++
		}
		rxClassOf[i] = uint8(c)
	}
}

// RxCopy returns a copy of p that belongs to the caller alone, from its
// first byte to its capacity: a released receive buffer of p's size class
// when there is one, a fresh allocation otherwise. It is how a transport
// makes the datagram it delivers the receiver's own (netsim.Transport).
func RxCopy(p []byte) []byte {
	if n := len(p); n > 0 && n <= rxClassMax {
		i := rxClassOf[(n+7)>>3]
		c := &rxClasses[i]
		if a := c.avail.Load(); a > 0 && c.avail.CompareAndSwap(a, a-1) {
			if b, _ := c.pool.Get().(*byte); b != nil {
				buf := unsafe.Slice(b, rxClassSizes[i])[:n]
				copy(buf, p)
				return buf
			}
		}
	}
	return append([]byte(nil), p...)
}

// RxRelease gives a received buffer — all of it, b[:cap(b)] — back for a
// later RxCopy to reuse. The caller must own the whole buffer, as the
// receiver of a datagram does, must hold no other reference into it, and
// must release it at most once. Buffers too small or too large for any
// class are left to the collector. In race builds the buffer is overwritten
// first, so a reference that outlived its release reads garbage at once
// instead of whenever the next datagram happens to land there.
func RxRelease(b []byte) {
	n := cap(b)
	if n < rxClassSizes[0] || n > rxClassMax {
		return
	}
	b = b[:n]
	i := rxClassOf[(n+7)>>3]
	if rxClassSizes[i] > n {
		i-- // filed under the largest class it can serve
	}
	if poisonReleased {
		for k := range b {
			b[k] = 0xDB
		}
	}
	c := &rxClasses[i]
	c.pool.Put(&b[0])
	c.avail.Add(1)
}
