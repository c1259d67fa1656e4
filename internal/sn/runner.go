package sn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/enclave"
	"interedge/internal/pipe"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Transport selects how packets travel between the pipe-terminus and a
// service module — the design axis Table 1 and §6.3 discuss ("We used IPC
// to send and receive data from services which obviously adds overhead").
type Transport int

const (
	// TransportChan is the in-process transport and the default: the
	// module's bounded dispatcher queue is the ring — the "shared memory"
	// alternative §6.3 alludes to. The pipe-terminus enqueues a miss, and the
	// dispatcher worker that dequeues it calls the module and applies the
	// verdict: one hand-off per packet.
	TransportChan Transport = iota
	// TransportDirect is a second name for the same path, kept for the
	// benchmarks that run both. The module does not run on the terminus
	// goroutine under this name either: a miss crosses the dispatcher queue.
	TransportDirect
	// TransportIPC interposes a real Unix-domain-socket round trip on the
	// packet path, reproducing the paper prototype's IPC configuration.
	// The module logic runs in this process; the data path pays true
	// kernel syscall and copy costs per packet.
	TransportIPC
)

// String names the transport for logs and benchmark labels.
func (t Transport) String() string {
	switch t {
	case TransportChan:
		return "chan"
	case TransportDirect:
		return "direct"
	case TransportIPC:
		return "ipc"
	default:
		return fmt.Sprintf("transport-%d", int(t))
	}
}

// ModuleOption customizes module registration.
type ModuleOption func(*moduleConfig)

type moduleConfig struct {
	transport        Transport
	enclave          bool
	workers          int
	queueDepth       int
	deadline         time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	degraded         DegradedAction
	degradedDst      wire.Addr
	restartBase      time.Duration
	restartMax       time.Duration
}

// WithTransport selects the module transport (default TransportChan).
func WithTransport(t Transport) ModuleOption {
	return func(c *moduleConfig) { c.transport = t }
}

// WithEnclave runs the module inside a simulated secure enclave (§6.2
// privacy; Appendix C Table 1).
func WithEnclave() ModuleOption {
	return func(c *moduleConfig) { c.enclave = true }
}

// WithWorkers sets the number of slow-path workers draining the module's
// queue (default 1, matching the paper's one-core-per-service setup).
func WithWorkers(n int) ModuleOption {
	return func(c *moduleConfig) { c.workers = n }
}

// WithQueueDepth sets the slow-path queue depth (default 256; the paper's
// benchmark keeps 64 packets outstanding).
func WithQueueDepth(n int) ModuleOption {
	return func(c *moduleConfig) { c.queueDepth = n }
}

// WithDeadline bounds every module invocation: an invocation still running
// after d fails with ErrModuleTimeout and the dispatcher worker moves on,
// so a hung module cannot wedge the slow path. The deadline is driven by
// the SN's injected clock, keeping chaos schedules deterministic. The
// abandoned invocation keeps its goroutine until the module returns; arm
// WithBreaker alongside the deadline so a persistently hung module stops
// being invoked at all after the failure budget. 0 (the default) disables
// the deadline.
func WithDeadline(d time.Duration) ModuleOption {
	return func(c *moduleConfig) { c.deadline = d }
}

// WithBreaker arms the module's circuit breaker: after `failures`
// consecutive failed invocations (errors, timeouts, panics, IPC crashes)
// the breaker opens for cooldown and the module's packets are shed to the
// degraded action (see WithDegradedForward; the default drops them). After
// the cooldown one half-open probe invocation is allowed through: success
// closes the breaker, failure re-opens it for another cooldown. failures
// <= 0 (the default) leaves the breaker disarmed.
func WithBreaker(failures int, cooldown time.Duration) ModuleOption {
	return func(c *moduleConfig) {
		c.breakerThreshold = failures
		c.breakerCooldown = cooldown
	}
}

// WithDegradedForward sheds the module's packets to dst — unmodified
// pass-through forwarding — while the breaker is open, instead of dropping
// them. dst is typically another SN hosting the same module, so the
// service degrades to extra latency rather than loss.
func WithDegradedForward(dst wire.Addr) ModuleOption {
	return func(c *moduleConfig) {
		c.degraded = DegradedForward
		c.degradedDst = dst
	}
}

// WithRestartBackoff tunes the redial policy for a crashed IPC module
// server: capped exponential backoff starting at base, capped at max,
// jittered deterministically (default 25ms base, 1s cap).
func WithRestartBackoff(base, max time.Duration) ModuleOption {
	return func(c *moduleConfig) {
		c.restartBase = base
		c.restartMax = max
	}
}

// handleFunc produces a module's decision for one packet, including any
// enclave boundary crossings.
type handleFunc func(pkt *Packet) (Decision, error)

// newHandleFunc wraps a module invocation, optionally routing the packet
// and decision bytes through the enclave boundary.
func newHandleFunc(mod Module, env Env, encl *enclave.Enclave) handleFunc {
	if encl == nil {
		return func(pkt *Packet) (Decision, error) { return mod.HandlePacket(env, pkt) }
	}
	return func(pkt *Packet) (Decision, error) {
		in, err := encodePacket(nil, pkt)
		if err != nil {
			return Decision{}, err
		}
		out, err := encl.Run(in, func(inside []byte) ([]byte, error) {
			p, err := decodePacket(inside)
			if err != nil {
				return nil, err
			}
			d, err := mod.HandlePacket(env, p)
			if err != nil {
				return nil, err
			}
			return encodeDecision(nil, &d)
		})
		if err != nil {
			return Decision{}, err
		}
		return decodeDecision(out)
	}
}

// recoverHandleFunc contains module panics on the in-process transports:
// a panic unwinds to here, is counted via notePanic, and is returned as a
// *ModulePanicError instead of killing the SN. (The IPC transport recovers
// on the server side instead, where a panic crashes the module-server
// connection — see ipcInvoker.)
func recoverHandleFunc(h handleFunc, notePanic func(v any)) handleFunc {
	return func(pkt *Packet) (d Decision, err error) {
		defer func() {
			if r := recover(); r != nil {
				notePanic(r)
				d, err = Decision{}, &ModulePanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return h(pkt)
	}
}

// invoker carries one packet across the module transport and returns the
// module's decision. It runs on the dispatcher worker that dequeued the
// packet (or on invokeOne's deadline goroutine).
type invoker interface {
	invoke(pkt *Packet) (Decision, error)
	close() error
}

// directInvoker is the in-process transport: the dispatcher queue was the
// hand-off, so the worker calls the module itself.
type directInvoker struct{ h handleFunc }

func (d *directInvoker) invoke(pkt *Packet) (Decision, error) { return d.h(pkt) }
func (d *directInvoker) close() error                         { return nil }

var errInvokerClosed = errors.New("sn: module invoker closed")

// ErrModuleTimeout marks a module invocation that exceeded its deadline
// (WithDeadline). The dispatcher worker is freed; the invocation itself
// runs on until the module returns.
var ErrModuleTimeout = errors.New("sn: module invocation deadline exceeded")

// ErrModuleRestarting marks an invocation attempted while the IPC module
// server is down and a redial is in progress.
var ErrModuleRestarting = errors.New("sn: module server down, restarting")

// maxIPCFrame bounds a framed IPC request or response. Anything larger
// means the stream has desynchronized (or the peer is hostile); the
// connection is torn down rather than allocating unbounded memory.
const maxIPCFrame = 1 << 24

// ipcInvoker carries packets over a real Unix domain socket: each invoke
// is a framed write plus a framed read, paying genuine kernel round-trip
// costs like the paper prototype's IPC path.
//
// The module-side server models a separate module process: a panic in the
// module "kills" it — the serving connection drops, and the accept loop
// stands ready for a new one. The invoker side treats any connection or
// framing failure (including a response that fails to decode: the framing
// can't be trusted after a partial failure) as a crash, closes the poisoned
// connection, and redials in the background with capped-exponential
// deterministically-jittered backoff. Invocations attempted while the
// server is down fail fast with ErrModuleRestarting.
type ipcInvoker struct {
	h           handleFunc
	sockPath    string
	listener    net.Listener
	clk         clock.Clock
	retry       *pipe.Backoff
	logf        func(format string, args ...any)
	notePanic   func(v any)
	noteRestart func()

	// ioMu serializes request/response exchanges; mu guards only the
	// connection pointer and redial flag, so close() can always reach the
	// conn to unblock a hung exchange.
	ioMu       sync.Mutex
	mu         sync.Mutex
	conn       net.Conn
	redialing  bool
	stop       chan struct{} // closed by close(): aborts redial waits
	serverDone chan struct{} // accept loop exited
	closed     atomic.Bool
}

func newIPCInvoker(name string, h handleFunc, clk clock.Clock, retry *pipe.Backoff,
	logf func(format string, args ...any), notePanic func(v any), noteRestart func()) (*ipcInvoker, error) {
	dir, err := os.MkdirTemp("", "interedge-ipc-")
	if err != nil {
		return nil, fmt.Errorf("sn: ipc tempdir: %w", err)
	}
	sockPath := filepath.Join(dir, name+".sock")
	l, err := net.Listen("unix", sockPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("sn: ipc listen: %w", err)
	}
	inv := &ipcInvoker{
		h:           h,
		sockPath:    sockPath,
		listener:    l,
		clk:         clk,
		retry:       retry,
		logf:        logf,
		notePanic:   notePanic,
		noteRestart: noteRestart,
		stop:        make(chan struct{}),
		serverDone:  make(chan struct{}),
	}

	// Module-side server: accept connections for the invoker's lifetime.
	// Each connection is served on its own goroutine and lives until its
	// conn dies (invoker-side reset, module crash, or invoker close), so a
	// crashed server is back the moment the invoker redials.
	go func() {
		defer close(inv.serverDone)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go inv.serve(conn)
		}
	}()

	conn, err := net.Dial("unix", sockPath)
	if err != nil {
		l.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("sn: ipc dial: %w", err)
	}
	inv.conn = conn
	return inv, nil
}

// serve answers framed requests on one module-server connection until the
// connection dies or the module "crashes" (panics).
func (i *ipcInvoker) serve(conn net.Conn) {
	defer conn.Close()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxIPCFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		resp, crashed := i.handleFrame(buf)
		if crashed {
			// The module "process" died mid-request: no response, the
			// connection drops, the invoker redials a fresh server.
			return
		}
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(resp)))
		if _, err := conn.Write(lenBuf[:]); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}

// handleFrame decodes one request and produces the framed response. A
// module panic is recovered here — counted, logged — and reported as a
// crash so serve drops the connection like a dying process would.
func (i *ipcInvoker) handleFrame(buf []byte) (resp []byte, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			i.notePanic(r)
			i.logf("sn: ipc module server panic (crashing server): %v\n%s", r, debug.Stack())
			resp, crashed = nil, true
		}
	}()
	pkt, err := decodePacket(buf)
	if err == nil {
		var d Decision
		if d, err = i.h(pkt); err == nil {
			if enc, encErr := encodeDecision([]byte{0}, &d); encErr == nil {
				return enc, false
			} else {
				err = encErr
			}
		}
	}
	return append([]byte{1}, err.Error()...), false
}

func (i *ipcInvoker) invoke(pkt *Packet) (Decision, error) {
	if i.closed.Load() {
		return Decision{}, errInvokerClosed
	}
	req, err := encodePacket(nil, pkt)
	if err != nil {
		return Decision{}, err
	}
	i.ioMu.Lock()
	defer i.ioMu.Unlock()
	i.mu.Lock()
	conn := i.conn
	if conn == nil {
		i.ensureRedialLocked()
		i.mu.Unlock()
		return Decision{}, ErrModuleRestarting
	}
	i.mu.Unlock()

	// Any connection or framing failure poisons the stream: drop the
	// connection and let the background redial bring up a fresh one.
	fail := func(op string, err error) (Decision, error) {
		i.mu.Lock()
		if i.conn == conn {
			i.conn = nil
			i.ensureRedialLocked()
		}
		i.mu.Unlock()
		conn.Close()
		return Decision{}, fmt.Errorf("sn: ipc %s (module server connection reset): %w", op, err)
	}

	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(req)))
	if _, err := conn.Write(lenBuf[:]); err != nil {
		return fail("write", err)
	}
	if _, err := conn.Write(req); err != nil {
		return fail("write", err)
	}
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return fail("read", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxIPCFrame {
		return fail("read", errors.New("oversized response frame"))
	}
	resp := make([]byte, n)
	if _, err := io.ReadFull(conn, resp); err != nil {
		return fail("read", err)
	}
	if len(resp) < 1 {
		return fail("read", errors.New("empty response"))
	}
	if resp[0] != 0 {
		// A module-level error leaves the framing intact; the connection
		// stays pooled.
		return Decision{}, fmt.Errorf("sn: module error: %s", resp[1:])
	}
	dec, err := decodeDecision(resp[1:])
	if err != nil {
		// The frame arrived but its contents don't parse: the stream
		// offset can no longer be trusted, so resynchronize by redialing
		// instead of returning a poisoned connection to the pool.
		return fail("decode", err)
	}
	return dec, nil
}

// ensureRedialLocked starts the background redial loop if one isn't
// already running. Caller holds i.mu.
func (i *ipcInvoker) ensureRedialLocked() {
	if i.redialing || i.closed.Load() {
		return
	}
	i.redialing = true
	go i.redialLoop()
}

// redialLoop re-establishes the module-server connection with capped
// exponential backoff and deterministic jitter (the pipe layer's redial
// policy), until it succeeds or the invoker closes.
func (i *ipcInvoker) redialLoop() {
	for attempt := 0; ; attempt++ {
		t := i.clk.NewTimer(i.retry.Attempt(attempt))
		select {
		case <-t.C():
		case <-i.stop:
			t.Stop()
			i.mu.Lock()
			i.redialing = false
			i.mu.Unlock()
			return
		}
		conn, err := net.Dial("unix", i.sockPath)
		if err != nil {
			i.logf("sn: ipc module server redial attempt %d failed: %v", attempt, err)
			continue
		}
		i.mu.Lock()
		if i.closed.Load() {
			i.redialing = false
			i.mu.Unlock()
			conn.Close()
			return
		}
		i.conn = conn
		i.redialing = false
		i.mu.Unlock()
		i.noteRestart()
		return
	}
}

func (i *ipcInvoker) close() error {
	if !i.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(i.stop)
	i.mu.Lock()
	conn := i.conn
	i.conn = nil
	i.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	i.listener.Close()
	<-i.serverDone
	os.RemoveAll(filepath.Dir(i.sockPath))
	return nil
}

// dispatcher is the slow-path queue between the pipe-terminus and one
// module, and for an in-process module it is the whole module transport:
// the worker that dequeues a packet invokes the module and applies the
// verdict itself, so a miss costs one goroutine hand-off. The worker owns
// the packet's lease (Packet) and ends it once the verdict, error or
// degraded action has been applied. It is also the
// module's containment point: it enforces the per-invoke deadline, drives
// the circuit breaker, and sheds to the degraded action while the breaker
// is open.
type dispatcher struct {
	queue    chan *Packet
	workers  int
	closed   atomic.Bool
	inv      invoker
	clk      clock.Clock
	deadline time.Duration
	brk      *breaker
	apply    func(pkt *Packet, d Decision)
	onError  func(pkt *Packet, err error)
	degrade  func(pkt *Packet) // runs for packets shed by an open breaker
	wg       sync.WaitGroup

	// Containment counters are telemetry instruments labeled by module
	// name; ModuleHealth reads them back as a legacy view.
	dropped  *telemetry.Counter
	handled  *telemetry.Counter
	errored  *telemetry.Counter
	timeouts *telemetry.Counter
	panics   *telemetry.Counter
	restarts *telemetry.Counter
	shed     *telemetry.Counter
	released *telemetry.Counter // the SN's sn_rx_buffers_released_total
}

type dispatcherConfig struct {
	workers  int
	depth    int
	clk      clock.Clock
	deadline time.Duration
	brk      *breaker
	module   string              // label value for the per-module instruments
	telem    *telemetry.Registry // nil homes the instruments privately
	apply    func(*Packet, Decision)
	onError  func(*Packet, error)
	degrade  func(*Packet)
}

func newDispatcher(inv invoker, cfg dispatcherConfig) *dispatcher {
	reg := cfg.telem
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ctr := func(base string) *telemetry.Counter {
		return reg.Counter(telemetry.Name(base, "module", cfg.module))
	}
	d := &dispatcher{
		queue:    make(chan *Packet, cfg.depth),
		workers:  cfg.workers,
		inv:      inv,
		clk:      cfg.clk,
		deadline: cfg.deadline,
		brk:      cfg.brk,
		apply:    cfg.apply,
		onError:  cfg.onError,
		degrade:  cfg.degrade,
		dropped:  ctr("sn_module_dropped_total"),
		handled:  ctr("sn_module_handled_total"),
		errored:  ctr("sn_module_errored_total"),
		timeouts: ctr("sn_module_timeouts_total"),
		panics:   ctr("sn_module_panics_total"),
		restarts: ctr("sn_module_restarts_total"),
		shed:     ctr("sn_module_shed_total"),
		released: reg.Counter("sn_rx_buffers_released_total"),
	}
	// Where the module's backlog stands, read only when a snapshot is taken.
	_ = reg.Register(telemetry.NewGaugeFunc(telemetry.Name("sn_module_queue_depth", "module", cfg.module), func() int64 {
		return int64(len(d.queue))
	}))
	for i := 0; i < cfg.workers; i++ {
		d.wg.Add(1)
		go d.work()
	}
	return d
}

// work is one dispatcher worker: it serves queued packets in order until
// close hands it the nil that ends it.
func (d *dispatcher) work() {
	defer d.wg.Done()
	for {
		pkt := <-d.queue
		if pkt == nil {
			return
		}
		if !d.brk.allow() {
			d.shed.Add(1)
			if d.degrade != nil {
				d.degrade(pkt)
			}
			d.recycle(pkt)
			continue
		}
		dec, err := d.invokeOne(pkt)
		d.brk.onResult(err)
		if err != nil {
			d.errored.Add(1)
			timedOut := errors.Is(err, ErrModuleTimeout)
			if timedOut {
				d.timeouts.Add(1)
			}
			d.onError(pkt, err)
			if !timedOut { // the abandoned invocation may still be reading it
				d.recycle(pkt)
			}
			continue
		}
		d.handled.Add(1)
		d.apply(pkt, dec)
		d.recycle(pkt)
	}
}

// recycle ends the lease of a packet nothing will read again, unless its
// module retained it.
func (d *dispatcher) recycle(pkt *Packet) {
	if pkt.recycle() {
		d.released.Add(1)
	}
}

// invokeOne runs one invocation under the module deadline. On timeout the
// worker abandons the invocation (its goroutine runs on until the module
// returns; the buffered channel lets its late result be dropped silently)
// and reports ErrModuleTimeout to the breaker. The abandoned invocation
// keeps its packet for good: it is never recycled.
func (d *dispatcher) invokeOne(pkt *Packet) (Decision, error) {
	if d.deadline <= 0 {
		return d.inv.invoke(pkt)
	}
	type res struct {
		dec Decision
		err error
	}
	ch := make(chan res, 1)
	go func() {
		dec, err := d.inv.invoke(pkt)
		ch <- res{dec, err}
	}()
	t := d.clk.NewTimer(d.deadline)
	select {
	case r := <-ch:
		t.Stop()
		return r.dec, r.err
	case <-t.C():
		return Decision{}, ErrModuleTimeout
	}
}

// submit enqueues a packet, dropping it if the slow path is saturated
// (overload sheds load rather than stalling the terminus) or closed.
func (d *dispatcher) submit(pkt *Packet) bool {
	if !d.closed.Load() {
		select {
		case d.queue <- pkt:
			return true
		default:
		}
	}
	d.dropped.Add(1)
	return false
}

// close stops the workers once they have served what is queued, then the
// invoker. The queue itself is never closed: Env.Inject lets any module
// goroutine submit at any time, and a send on a closed channel would panic
// the SN. One nil per worker ends them instead; a packet submitted behind
// the nils is never served, like one dropped at a full queue.
func (d *dispatcher) close() {
	if d.closed.Swap(true) {
		return
	}
	for i := 0; i < d.workers; i++ {
		d.queue <- nil
	}
	d.wg.Wait()
	d.inv.close()
}
