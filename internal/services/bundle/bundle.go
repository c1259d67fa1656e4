// Package bundle implements §3.2's service bundles: "naturally composable
// services can be combined into 'bundles' (e.g., an IP-like service and a
// caching service) that hosts can invoke, and the invocation may have
// optional settings (signalled in the metadata) that control various
// aspects of the service (e.g., whether or not to invoke caching)".
//
// The web bundle here composes IP-like request delivery to an origin host
// with an edge content cache. The per-invocation metadata flag decides
// whether caching is invoked: with the flag set, responses are served and
// stored at the SN; without it, every request travels to the origin —
// same connection, same service ID, different behaviour, exactly the
// composition story of §3.2. Crucially, the burden of composing the two
// functions sits here in the bundle implementation, not on the customer
// (§5: "the burden of figuring out how to combine two or more services is
// taken on by the developers of those services").
package bundle

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Option flags carried in the invocation metadata.
const (
	// OptCache invokes the caching half of the bundle.
	OptCache byte = 1 << 0
)

// Packet kinds (second metadata byte).
const (
	kindRequest  byte = iota // client → SN
	kindFetch                // SN → origin (data: kind ‖ reqID(8) ‖ name)
	kindOrigin               // origin → SN (same data as fetch)
	kindResponse             // SN → client (data: kind ‖ fromCache(1))
	kindMiss                 // SN → client: origin unknown or no content
)

// Errors returned by the bundle.
var (
	ErrBadHeader = errors.New("bundle: malformed header data")
	ErrTimeout   = errors.New("bundle: request timed out")
	ErrNotFound  = errors.New("bundle: content not found")
)

type cachedObject struct {
	name string
	data []byte
	elem *list.Element
}

type pending struct {
	client wire.Addr
	conn   wire.ConnectionID
	cache  bool
	name   string
}

// Module is the web bundle service for one SN.
type Module struct {
	capacity int

	mu      sync.Mutex
	objects map[string]*cachedObject
	lru     *list.List
	size    int
	nextID  uint64
	pending map[uint64]pending
	hits    uint64
	origin  uint64
}

// New creates the bundle with the given cache byte budget.
func New(cacheBytes int) *Module {
	return &Module{
		capacity: cacheBytes,
		objects:  make(map[string]*cachedObject),
		lru:      list.New(),
		pending:  make(map[uint64]pending),
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcWebBundle }

// Name implements sn.Module.
func (*Module) Name() string { return "webbundle" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Stats reports (cache hits, origin fetches).
func (m *Module) Stats() (hits, origin uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.origin
}

// RequestData builds the invocation metadata: flags ‖ kind ‖ origin(16) ‖ name.
func RequestData(flags byte, origin wire.Addr, name string) []byte {
	b := origin.As16()
	data := make([]byte, 0, 2+16+len(name))
	data = append(data, flags, kindRequest)
	data = append(data, b[:]...)
	return append(data, name...)
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 2 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[1] {
	case kindRequest:
		return m.handleRequest(env, pkt)
	case kindOrigin:
		return m.handleOrigin(env, pkt)
	default:
		return sn.Decision{}, fmt.Errorf("bundle: unexpected kind %d", pkt.Hdr.Data[1])
	}
}

func (m *Module) handleRequest(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	data := pkt.Hdr.Data
	if len(data) < 18 {
		return sn.Decision{}, ErrBadHeader
	}
	flags := data[0]
	var b [16]byte
	copy(b[:], data[2:18])
	origin := netip.AddrFrom16(b).Unmap()
	name := string(data[18:])
	useCache := flags&OptCache != 0

	if useCache {
		m.mu.Lock()
		if obj, ok := m.objects[name]; ok {
			m.hits++
			m.lru.MoveToFront(obj.elem)
			payload := obj.data
			m.mu.Unlock()
			hdr := wire.ILPHeader{Service: wire.SvcWebBundle, Conn: pkt.Hdr.Conn, Data: []byte{flags, kindResponse, 1}}
			return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src, Hdr: &hdr, Payload: payload}}}, nil
		}
		m.mu.Unlock()
	}

	// IP-like half: go to the origin.
	m.mu.Lock()
	m.origin++
	m.nextID++
	id := m.nextID
	m.pending[id] = pending{client: pkt.Src, conn: pkt.Hdr.Conn, cache: useCache, name: name}
	m.mu.Unlock()

	fetch := make([]byte, 10, 10+len(name))
	fetch[0] = flags
	fetch[1] = kindFetch
	binary.BigEndian.PutUint64(fetch[2:10], id)
	fetch = append(fetch, name...)
	hdr := wire.ILPHeader{Service: wire.SvcWebBundle, Conn: pkt.Hdr.Conn, Data: fetch}
	return sn.Decision{Forwards: []sn.Forward{{Dst: origin, Hdr: &hdr, Payload: []byte{}}}}, nil
}

func (m *Module) handleOrigin(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	data := pkt.Hdr.Data
	if len(data) < 10 {
		return sn.Decision{}, ErrBadHeader
	}
	id := binary.BigEndian.Uint64(data[2:10])
	m.mu.Lock()
	p, ok := m.pending[id]
	delete(m.pending, id)
	if !ok {
		m.mu.Unlock()
		return sn.Decision{}, nil // stale
	}
	if p.cache && len(pkt.Payload) > 0 {
		m.insertLocked(p.name, append([]byte(nil), pkt.Payload...))
	}
	m.mu.Unlock()

	kind := kindResponse
	if len(pkt.Payload) == 0 {
		kind = kindMiss
	}
	hdr := wire.ILPHeader{Service: wire.SvcWebBundle, Conn: p.conn, Data: []byte{data[0], kind, 0}}
	return sn.Decision{Forwards: []sn.Forward{{Dst: p.client, Hdr: &hdr}}}, nil
}

func (m *Module) insertLocked(name string, data []byte) {
	if len(data) > m.capacity {
		return
	}
	if old, ok := m.objects[name]; ok {
		m.size -= len(old.data)
		m.lru.Remove(old.elem)
		delete(m.objects, name)
	}
	for m.size+len(data) > m.capacity {
		back := m.lru.Back()
		if back == nil {
			break
		}
		v := back.Value.(*cachedObject)
		m.lru.Remove(back)
		delete(m.objects, v.name)
		m.size -= len(v.data)
	}
	obj := &cachedObject{name: name, data: data}
	obj.elem = m.lru.PushFront(obj)
	m.objects[name] = obj
	m.size += len(data)
}

// --- Origin and client helpers -------------------------------------------------

// ServeOrigin answers bundle fetches on a content provider's host.
func ServeOrigin(h *host.Host, contents map[string][]byte) {
	cp := make(map[string][]byte, len(contents))
	for k, v := range contents {
		cp[k] = append([]byte(nil), v...)
	}
	h.OnService(wire.SvcWebBundle, func(msg host.Message) {
		if len(msg.Hdr.Data) < 10 || msg.Hdr.Data[1] != kindFetch {
			return
		}
		name := string(msg.Hdr.Data[10:])
		reply := append([]byte(nil), msg.Hdr.Data...)
		reply[1] = kindOrigin
		hdr := wire.ILPHeader{Service: wire.SvcWebBundle, Conn: msg.Hdr.Conn, Data: reply}
		_ = h.Pipes().Send(msg.Src, &hdr, cp[name]) // empty payload = not found
	})
}

// Response is one bundle fetch result.
type Response struct {
	Data      []byte
	FromCache bool
}

// Client fetches through the bundle.
type Client struct {
	h       *host.Host
	timeout time.Duration
}

// NewClient creates a bundle client.
func NewClient(h *host.Host) *Client { return &Client{h: h, timeout: 5 * time.Second} }

// Get requests name from origin through the host's first-hop SN. flags
// select per-invocation options (OptCache to invoke caching).
func (c *Client) Get(flags byte, origin wire.Addr, name string) (Response, error) {
	conn, err := c.h.NewConn(wire.SvcWebBundle)
	if err != nil {
		return Response{}, err
	}
	defer conn.Close()
	if err := conn.Send(RequestData(flags, origin, name), nil); err != nil {
		return Response{}, err
	}
	select {
	case msg, ok := <-conn.Receive():
		if !ok {
			return Response{}, ErrTimeout
		}
		if len(msg.Hdr.Data) < 3 {
			return Response{}, ErrBadHeader
		}
		if msg.Hdr.Data[1] == kindMiss {
			return Response{}, ErrNotFound
		}
		return Response{Data: msg.Payload, FromCache: msg.Hdr.Data[2] == 1}, nil
	case <-time.After(c.timeout):
		return Response{}, ErrTimeout
	}
}
