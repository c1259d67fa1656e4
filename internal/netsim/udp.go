package netsim

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// maxUDPPayload is the largest UDP payload (and therefore the largest GSO
// super-datagram) a single send may carry.
const maxUDPPayload = 65507

// UDPDirectory maps wire addresses to real UDP endpoints so the same node
// code that runs on the in-process fabric can run across processes or
// machines. The directory plays the role of static L3 routing
// configuration; it is not a discovery service.
type UDPDirectory struct {
	mu      sync.RWMutex
	entries map[wire.Addr]*net.UDPAddr
}

// NewUDPDirectory returns an empty directory.
func NewUDPDirectory() *UDPDirectory {
	return &UDPDirectory{entries: make(map[wire.Addr]*net.UDPAddr)}
}

// Register associates a wire address with a UDP endpoint.
func (d *UDPDirectory) Register(addr wire.Addr, ep *net.UDPAddr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[addr] = ep
}

// Lookup resolves a wire address to a UDP endpoint.
func (d *UDPDirectory) Lookup(addr wire.Addr) (*net.UDPAddr, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ep, ok := d.entries[addr]
	return ep, ok
}

// UDPStats counts what the socket path did. All counters are monotonic.
type UDPStats struct {
	RxPackets   uint64 // datagrams decoded and queued for the receiver
	RxDropped   uint64 // well-formed datagrams dropped at a full rx queue
	RxMalformed uint64 // datagrams that failed wire decode
	TxPackets   uint64 // datagrams written to the socket
	TxBatches   uint64 // SendBatch flushes (vectored or loop fallback)
}

// errMMsgUnsupported is the platform hooks' signal to fall back to the
// portable per-packet path; it never escapes this package.
var errMMsgUnsupported = errors.New("netsim: mmsg unsupported")

// errGSOUnsupported is the platform hooks' signal that the kernel refused
// a UDP_SEGMENT send; the transport latches GSO off and resends via the
// plain vectored path. It never escapes this package.
var errGSOUnsupported = errors.New("netsim: udp gso unsupported")

// UDPOption configures a UDPTransport.
type UDPOption func(*UDPTransport)

// WithUDPQueueDepth sets the receive queue depth (default 4096).
func WithUDPQueueDepth(d int) UDPOption {
	return func(t *UDPTransport) { t.queueDepth = d }
}

// WithoutMMsg disables the sendmmsg/recvmmsg fast path, forcing the
// portable per-packet syscalls. Used by tests to exercise the fallback.
func WithoutMMsg() UDPOption {
	return func(t *UDPTransport) { t.noMMsg = true }
}

// WithoutUDPGSO disables UDP segmentation/receive offload (UDP_SEGMENT /
// UDP_GRO), forcing per-datagram sendmmsg framing. Used by tests to
// exercise the fallback; the INTEREDGE_NO_GSO environment variable forces
// the same for a whole test run (the CI fallback leg).
func WithoutUDPGSO() UDPOption {
	return func(t *UDPTransport) { t.noGSO = true }
}

// WithUDPTelemetry homes the transport's transport_udp_* instruments in an
// existing registry instead of a private one.
func WithUDPTelemetry(r *telemetry.Registry) UDPOption {
	return func(t *UDPTransport) { t.telem = r }
}

// UDPTransport carries wire datagrams over a real UDP socket. On Linux
// (amd64/arm64) batches go through sendmmsg(2)/recvmmsg(2); elsewhere, and
// when the kernel rejects the vectored calls, it degrades to the portable
// per-packet path.
type UDPTransport struct {
	addr       wire.Addr
	dir        *UDPDirectory
	conn       *net.UDPConn
	rc         syscall.RawConn
	rx         chan wire.Datagram
	queueDepth int
	noMMsg     bool
	noGSO      bool
	sock6      bool // socket is AF_INET6; v4 destinations need mapping
	// groOn records that UDP_GRO was enabled on the socket. Written before
	// the read loop starts and by the read loop itself on fallback; never
	// read elsewhere.
	groOn bool

	closed atomic.Bool
	// mmsgOK drops to false on the first hard sendmmsg failure so a kernel
	// that rejects the syscall costs one failed attempt, not one per batch.
	mmsgOK atomic.Bool
	// gsoOK drops to false on the first refused UDP_SEGMENT send, so an
	// unsupported kernel or NIC path costs one failed attempt; the batch
	// that hit it is retried on the plain vectored path.
	gsoOK atomic.Bool

	encPool sync.Pool // *[]byte encode buffers
	txPool  sync.Pool // *udpTxState batch scratch
	gsoPool sync.Pool // *[]byte super-datagram buffers (GSO path)

	// The socket counters are telemetry instruments homed in a private
	// registry; RegisterTelemetry shares the same instrument objects into a
	// node registry so the SN's snapshot covers the transport layer.
	telem       *telemetry.Registry
	rxPackets   *telemetry.Counter
	rxDropped   *telemetry.Counter
	rxMalformed *telemetry.Counter
	txPackets   *telemetry.Counter
	txBatches   *telemetry.Counter
	gsoSegments *telemetry.Histogram
}

// udpTxState is the reusable scratch for one in-flight SendBatch: the
// pooled encode buffers and resolved endpoints, plus whatever per-platform
// storage (msghdr/iovec/sockaddr arrays) the vectored path needs.
type udpTxState struct {
	bufs []*[]byte
	eps  []*net.UDPAddr
	sys  mmsgTxState
}

// NewUDPTransport binds a UDP socket on listen (e.g. "127.0.0.1:0"),
// registers the node in the directory, and starts the receive loop.
func NewUDPTransport(addr wire.Addr, listen string, dir *UDPDirectory, opts ...UDPOption) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("netsim: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen UDP: %w", err)
	}
	t := &UDPTransport{
		addr:       addr,
		dir:        dir,
		conn:       conn,
		queueDepth: 4096,
	}
	for _, o := range opts {
		o(t)
	}
	if t.telem == nil {
		t.telem = telemetry.NewRegistry()
	}
	if os.Getenv("INTEREDGE_NO_GSO") != "" {
		t.noGSO = true
	}
	t.rxPackets = t.telem.Counter("transport_udp_rx_packets_total")
	t.rxDropped = t.telem.Counter("transport_udp_rx_dropped_total")
	t.rxMalformed = t.telem.Counter("transport_udp_rx_malformed_total")
	t.txPackets = t.telem.Counter("transport_udp_tx_packets_total")
	t.txBatches = t.telem.Counter("transport_udp_tx_batches_total")
	t.gsoSegments = t.telem.Histogram("transport_gso_segments", telemetry.BatchBuckets)
	t.rx = make(chan wire.Datagram, t.queueDepth)
	t.encPool.New = func() any {
		b := make([]byte, 0, wire.MTU+wire.DatagramHeaderSize)
		return &b
	}
	t.txPool.New = func() any { return &udpTxState{} }
	t.gsoPool.New = func() any {
		b := make([]byte, 0, maxUDPPayload)
		return &b
	}
	local := conn.LocalAddr().(*net.UDPAddr)
	t.sock6 = local.IP.To4() == nil
	if rc, err := conn.SyscallConn(); err == nil {
		t.rc = rc
		t.mmsgOK.Store(mmsgArch && !t.noMMsg)
		// GSO rides on the vectored path: the capability probe is a cheap
		// setsockopt, and GRO is only worth enabling when the vectored read
		// loop (which parses its cmsgs) will run.
		if t.mmsgOK.Load() && !t.noGSO && t.probeGSO() {
			t.gsoOK.Store(true)
			t.groOn = t.enableGRO()
		}
	}
	dir.Register(addr, local)
	go t.readLoop()
	return t, nil
}

// readLoop prefers the vectored recvmmsg path; if the platform hook
// declines (non-Linux build, old kernel, or WithoutMMsg) it falls back to
// one blocking ReadFromUDP per datagram.
func (t *UDPTransport) readLoop() {
	if t.rc != nil && mmsgArch && !t.noMMsg {
		if t.readLoopMMsg() {
			return // loop ran until close and shut the rx channel
		}
		// The portable loop below cannot parse GRO cmsgs, so coalescing
		// must be turned off before falling back or multi-datagram reads
		// would be decoded as one malformed packet.
		if t.groOn {
			t.disableGRO()
			t.groOn = false
		}
	}
	buf := make([]byte, wire.MTU+wire.DatagramHeaderSize)
	for {
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if t.closed.Load() {
				close(t.rx)
				return
			}
			continue
		}
		t.deliverRx(buf[:n])
	}
}

// deliverRx decodes one packet off the socket and queues it, counting
// malformed decodes and full-queue drops instead of silently eating them.
func (t *UDPTransport) deliverRx(pkt []byte) {
	var dg wire.Datagram
	if _, err := dg.DecodeFromBytes(pkt); err != nil {
		t.rxMalformed.Add(1)
		return
	}
	// Copy out of the reused read buffer.
	dg.Payload = wire.RxCopy(dg.Payload)
	select {
	case t.rx <- dg:
		t.rxPackets.Add(1)
	default:
		t.rxDropped.Add(1)
		wire.RxRelease(dg.Payload)
	}
}

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() wire.Addr { return t.addr }

// Send implements Transport.
func (t *UDPTransport) Send(dg wire.Datagram) error {
	if t.closed.Load() {
		return ErrClosed
	}
	dg.Src = t.addr
	ep, ok := t.dir.Lookup(dg.Dst)
	if !ok {
		return ErrUnknownDestination
	}
	bp := t.encPool.Get().(*[]byte)
	buf, err := dg.AppendEncode((*bp)[:0])
	if err != nil {
		t.encPool.Put(bp)
		return err
	}
	*bp = buf
	_, err = t.conn.WriteToUDP(buf, ep)
	t.encPool.Put(bp)
	if err == nil {
		t.txPackets.Add(1)
	}
	return err
}

// SendBatch implements BatchSender: the whole batch is encoded into pooled
// buffers and flushed with one sendmmsg(2) where available (destinations
// may differ per datagram — each message carries its own sockaddr), or a
// WriteToUDP loop otherwise.
func (t *UDPTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	if t.gsoOK.Load() {
		n, err := t.sendBatchGSO(dgs)
		if !errors.Is(err, errGSOUnsupported) {
			return n, err
		}
		// Refused with nothing sent: latch GSO off and resend the whole
		// batch with per-datagram framing.
		t.gsoOK.Store(false)
	}
	st := t.txPool.Get().(*udpTxState)
	defer t.releaseTx(st)
	for i := range dgs {
		dgs[i].Src = t.addr
		ep, ok := t.dir.Lookup(dgs[i].Dst)
		if !ok {
			n, werr := t.writeBatch(st)
			if werr != nil {
				return n, werr
			}
			return i, ErrUnknownDestination
		}
		bp := t.encPool.Get().(*[]byte)
		buf, err := dgs[i].AppendEncode((*bp)[:0])
		if err != nil {
			t.encPool.Put(bp)
			n, werr := t.writeBatch(st)
			if werr != nil {
				return n, werr
			}
			return i, err
		}
		*bp = buf
		st.bufs = append(st.bufs, bp)
		st.eps = append(st.eps, ep)
	}
	return t.writeBatch(st)
}

// writeBatch flushes the encoded batch: vectored first, then the portable
// loop for whatever the vectored path could not take.
func (t *UDPTransport) writeBatch(st *udpTxState) (int, error) {
	total := len(st.bufs)
	if total == 0 {
		return 0, nil
	}
	sent := 0
	if mmsgArch && t.mmsgOK.Load() {
		n, err := t.sendMMsg(st)
		sent = n
		switch {
		case err == nil:
			t.txPackets.Add(uint64(sent))
			t.txBatches.Add(1)
			return sent, nil
		case errors.Is(err, errMMsgUnsupported):
			t.mmsgOK.Store(false)
		default:
			t.txPackets.Add(uint64(sent))
			return sent, err
		}
	}
	for ; sent < total; sent++ {
		if _, err := t.conn.WriteToUDP(*st.bufs[sent], st.eps[sent]); err != nil {
			t.txPackets.Add(uint64(sent))
			return sent, err
		}
	}
	t.txPackets.Add(uint64(total))
	t.txBatches.Add(1)
	return total, nil
}

// releaseTx returns the batch scratch and its encode buffers to their pools.
func (t *UDPTransport) releaseTx(st *udpTxState) {
	for i, bp := range st.bufs {
		t.encPool.Put(bp)
		st.bufs[i] = nil
	}
	st.bufs = st.bufs[:0]
	for i := range st.eps {
		st.eps[i] = nil
	}
	st.eps = st.eps[:0]
	t.releaseGSO(st)
	t.txPool.Put(st)
}

// Stats returns a snapshot of the socket counters. It is a legacy view over
// the transport_udp_* telemetry instruments: each field is read atomically,
// but the struct is not one consistent cut across counters.
func (t *UDPTransport) Stats() UDPStats {
	return UDPStats{
		RxPackets:   t.rxPackets.Load(),
		RxDropped:   t.rxDropped.Load(),
		RxMalformed: t.rxMalformed.Load(),
		TxPackets:   t.txPackets.Load(),
		TxBatches:   t.txBatches.Load(),
	}
}

// RegisterTelemetry implements telemetry.Registrable: it shares the socket
// counters (the same instrument objects) into r, alongside a lazy gauge for
// the receive-queue depth.
func (t *UDPTransport) RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister(t.rxPackets, t.rxDropped, t.rxMalformed, t.txPackets, t.txBatches, t.gsoSegments)
	_ = r.Register(telemetry.NewGaugeFunc("transport_rx_queue_depth", func() int64 {
		return int64(len(t.rx))
	}))
}

// Receive implements Transport.
func (t *UDPTransport) Receive() <-chan wire.Datagram { return t.rx }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.conn.Close()
}
