// Package cdncache implements a content-caching service — the paper's
// canonical edge service (caching "was the first widespread performance
// enhancement", §1.2) and its running example for inter-IESP coordination
// (§5: cached content flows from the SN paid by the application provider
// to the SN paid by the enterprise, then to the client).
//
// Content providers publish origins; clients request named content from
// their first-hop SN. The SN serves hits from a byte-budgeted LRU store
// and fetches misses from the origin host, chunking large objects across
// packets.
package cdncache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Packet kinds in the first byte of header data.
const (
	kindGet    byte = iota // client → SN (data: kind ‖ name)
	kindData               // SN → client (data: kind ‖ chunk meta; payload: chunk)
	kindFetch              // SN → origin host (data: kind ‖ name)
	kindOrigin             // origin host → SN (data: kind ‖ chunk meta ‖ name; payload: chunk)
	kindMiss               // SN → client: content unavailable
)

// ChunkSize is the content chunk carried per packet.
const ChunkSize = 1024

// Errors returned by the service.
var (
	ErrBadHeader  = errors.New("cdncache: malformed header data")
	ErrNotFound   = errors.New("cdncache: content not found")
	ErrGetTimeout = errors.New("cdncache: request timed out")
)

// Stats reports cache effectiveness.
type Stats struct {
	Hits          uint64
	Misses        uint64
	OriginFetches uint64
	BytesCached   int
}

type cachedObject struct {
	name string
	data []byte
	elem *list.Element
}

type pendingFetch struct {
	waiters []waiter
	chunks  [][]byte
	total   int
}

type waiter struct {
	client wire.Addr
	conn   wire.ConnectionID
}

// Module is the caching service for one SN.
type Module struct {
	capacity int

	mu      sync.Mutex
	objects map[string]*cachedObject
	lru     *list.List // front = most recent
	size    int
	origins map[string]wire.Addr // content name -> origin host
	pending map[string]*pendingFetch
	hits    uint64
	misses  uint64
	fetches uint64
}

// New creates a cache with the given byte capacity.
func New(capacityBytes int) *Module {
	return &Module{
		capacity: capacityBytes,
		objects:  make(map[string]*cachedObject),
		lru:      list.New(),
		origins:  make(map[string]wire.Addr),
		pending:  make(map[string]*pendingFetch),
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcCDNCache }

// Name implements sn.Module.
func (*Module) Name() string { return "cdncache" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Stats returns cache counters.
func (m *Module) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, OriginFetches: m.fetches, BytesCached: m.size}
}

// PublishArgs are the args of publish.
type PublishArgs struct {
	Name   string    `json:"name"`
	Origin wire.Addr `json:"origin"`
}

// The service's control ops. publish registers the origin host for a
// content name (invoked by the application provider).
var (
	OpPublish = control.NewOp[PublishArgs, control.None](wire.SvcCDNCache, "publish")
	OpStats   = control.NewOp[control.None, Stats](wire.SvcCDNCache, "stats")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpPublish, func(_ sn.Env, _ wire.Addr, a PublishArgs) (control.None, error) {
			if !a.Origin.IsValid() {
				return control.None{}, errors.New("cdncache: publish names no origin")
			}
			m.mu.Lock()
			m.origins[a.Name] = a.Origin
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpStats, func(sn.Env, wire.Addr, control.None) (Stats, error) {
			return m.Stats(), nil
		}),
	}
}

// chunkMeta is idx(4) | total(4).
func chunkMeta(kind byte, idx, total int, name string) []byte {
	data := make([]byte, 9, 9+len(name))
	data[0] = kind
	binary.BigEndian.PutUint32(data[1:5], uint32(idx))
	binary.BigEndian.PutUint32(data[5:9], uint32(total))
	return append(data, name...)
}

func parseChunkMeta(data []byte) (idx, total int, name string, err error) {
	if len(data) < 9 {
		return 0, 0, "", ErrBadHeader
	}
	return int(binary.BigEndian.Uint32(data[1:5])), int(binary.BigEndian.Uint32(data[5:9])), string(data[9:]), nil
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[0] {
	case kindGet:
		return m.handleGet(env, pkt)
	case kindOrigin:
		return m.handleOrigin(env, pkt)
	default:
		return sn.Decision{}, fmt.Errorf("cdncache: unexpected kind %d", pkt.Hdr.Data[0])
	}
}

func (m *Module) handleGet(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	name := string(pkt.Hdr.Data[1:])
	m.mu.Lock()
	obj, hit := m.objects[name]
	if hit {
		m.hits++
		m.lru.MoveToFront(obj.elem)
		data := obj.data
		m.mu.Unlock()
		return m.respond(pkt.Src, pkt.Hdr.Conn, name, data), nil
	}
	m.misses++
	origin, known := m.origins[name]
	if !known {
		m.mu.Unlock()
		hdr := wire.ILPHeader{Service: wire.SvcCDNCache, Conn: pkt.Hdr.Conn, Data: append([]byte{kindMiss}, name...)}
		return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src, Hdr: &hdr, Empty: true}}}, nil
	}
	pf, inflight := m.pending[name]
	if !inflight {
		pf = &pendingFetch{}
		m.pending[name] = pf
	}
	pf.waiters = append(pf.waiters, waiter{client: pkt.Src, conn: pkt.Hdr.Conn})
	m.mu.Unlock()

	if !inflight {
		m.mu.Lock()
		m.fetches++
		m.mu.Unlock()
		hdr := wire.ILPHeader{Service: wire.SvcCDNCache, Conn: pkt.Hdr.Conn, Data: append([]byte{kindFetch}, name...)}
		if err := env.Send(origin, &hdr, nil); err != nil {
			return sn.Decision{}, fmt.Errorf("cdncache: fetch from origin: %w", err)
		}
	}
	return sn.Decision{}, nil
}

// handleOrigin collects origin chunks; when complete, stores the object
// and answers all waiters.
func (m *Module) handleOrigin(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	idx, total, name, err := parseChunkMeta(pkt.Hdr.Data)
	if err != nil {
		return sn.Decision{}, err
	}
	m.mu.Lock()
	pf, ok := m.pending[name]
	if !ok {
		m.mu.Unlock()
		return sn.Decision{}, nil // stale chunk
	}
	if pf.chunks == nil {
		pf.chunks = make([][]byte, total)
		pf.total = total
	}
	if idx < len(pf.chunks) && pf.chunks[idx] == nil {
		pf.chunks[idx] = append([]byte(nil), pkt.Payload...)
	}
	complete := true
	for _, c := range pf.chunks {
		if c == nil {
			complete = false
			break
		}
	}
	if !complete {
		m.mu.Unlock()
		return sn.Decision{}, nil
	}
	delete(m.pending, name)
	var data []byte
	for _, c := range pf.chunks {
		data = append(data, c...)
	}
	m.insertLocked(name, data)
	waiters := pf.waiters
	m.mu.Unlock()

	var d sn.Decision
	for _, w := range waiters {
		wd := m.respond(w.client, w.conn, name, data)
		d.Forwards = append(d.Forwards, wd.Forwards...)
	}
	return d, nil
}

// insertLocked stores an object, evicting LRU entries to stay within the
// byte budget. Caller holds m.mu.
func (m *Module) insertLocked(name string, data []byte) {
	if len(data) > m.capacity {
		return // object larger than the whole cache: serve without storing
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
		victim := back.Value.(*cachedObject)
		m.lru.Remove(back)
		delete(m.objects, victim.name)
		m.size -= len(victim.data)
	}
	obj := &cachedObject{name: name, data: data}
	obj.elem = m.lru.PushFront(obj)
	m.objects[name] = obj
	m.size += len(data)
}

// respond builds the chunked delivery of an object to a client.
func (m *Module) respond(client wire.Addr, conn wire.ConnectionID, name string, data []byte) sn.Decision {
	total := (len(data) + ChunkSize - 1) / ChunkSize
	if total == 0 {
		total = 1
	}
	var d sn.Decision
	for i := 0; i < total; i++ {
		lo := i * ChunkSize
		hi := lo + ChunkSize
		if hi > len(data) {
			hi = len(data)
		}
		hdr := wire.ILPHeader{Service: wire.SvcCDNCache, Conn: conn, Data: chunkMeta(kindData, i, total, name)}
		d.Forwards = append(d.Forwards, sn.Forward{Dst: client, Hdr: &hdr, Payload: data[lo:hi]})
	}
	return d
}

// Contains reports whether the cache currently holds name (tests).
func (m *Module) Contains(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.objects[name]
	return ok
}

// --- Origin server and client helpers ----------------------------------------

// ServeOrigin runs origin-side logic on a content provider's host:
// answering kindFetch requests from SNs out of the given content map.
func ServeOrigin(h *host.Host, contents map[string][]byte) {
	cp := make(map[string][]byte, len(contents))
	for k, v := range contents {
		cp[k] = append([]byte(nil), v...)
	}
	h.OnService(wire.SvcCDNCache, func(msg host.Message) {
		if len(msg.Hdr.Data) < 1 || msg.Hdr.Data[0] != kindFetch {
			return
		}
		name := string(msg.Hdr.Data[1:])
		data, ok := cp[name]
		if !ok {
			return
		}
		total := (len(data) + ChunkSize - 1) / ChunkSize
		if total == 0 {
			total = 1
		}
		for i := 0; i < total; i++ {
			lo := i * ChunkSize
			hi := lo + ChunkSize
			if hi > len(data) {
				hi = len(data)
			}
			hdr := wire.ILPHeader{Service: wire.SvcCDNCache, Conn: msg.Hdr.Conn, Data: chunkMeta(kindOrigin, i, total, name)}
			if err := h.Pipes().Send(msg.Src, &hdr, data[lo:hi]); err != nil {
				return
			}
		}
	})
}

// Client fetches content through the host's first-hop SN.
type Client struct {
	h       *host.Host
	timeout time.Duration
}

// NewClient creates a CDN client.
func NewClient(h *host.Host) *Client { return &Client{h: h, timeout: 5 * time.Second} }

// Get retrieves named content.
func (c *Client) Get(name string) ([]byte, error) {
	conn, err := c.h.NewConn(wire.SvcCDNCache)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(append([]byte{kindGet}, name...), nil); err != nil {
		return nil, err
	}
	var chunks [][]byte
	var total = -1
	received := 0
	deadline := time.After(c.timeout)
	for {
		var msg host.Message
		var ok bool
		select {
		case msg, ok = <-conn.Receive():
			if !ok {
				return nil, ErrGetTimeout
			}
		case <-deadline:
			return nil, ErrGetTimeout
		}
		switch msg.Hdr.Data[0] {
		case kindMiss:
			return nil, ErrNotFound
		case kindData:
			idx, tot, _, err := parseChunkMeta(msg.Hdr.Data)
			if err != nil {
				return nil, err
			}
			if total == -1 {
				total = tot
				chunks = make([][]byte, tot)
			}
			if idx < len(chunks) && chunks[idx] == nil {
				chunks[idx] = msg.Payload
				received++
			}
			if received == total {
				var out []byte
				for _, ch := range chunks {
					out = append(out, ch...)
				}
				return out, nil
			}
		}
	}
}
