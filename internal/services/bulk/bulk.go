// Package bulk implements bulk data delivery (§6.2: "Bulk data delivery is
// a form of multipoint delivery but focuses on large data transfers …
// we are currently building such a service for possible use for large
// experimental datasets in the scientific community").
//
// A publisher pushes a named dataset to its first-hop SN, which stores the
// chunks. Receivers — possibly many, possibly resuming after interruption
// — pull chunks by index from the SN, so the publisher uploads once
// regardless of the number of downloaders, and a resumed transfer only
// fetches the chunks it is missing.
package bulk

import (
	"crypto/sha256"
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

// ChunkSize is the dataset chunk carried per packet.
const ChunkSize = 1024

// Packet kinds in the first byte of header data.
const (
	kindPut     byte = iota // publisher → SN (data: kind ‖ idx(4) ‖ total(4) ‖ name)
	kindRequest             // receiver → SN (data: kind ‖ idx(4) ‖ name)
	kindChunk               // SN → receiver (data: kind ‖ idx(4) ‖ total(4) ‖ name)
	kindMissing             // SN → receiver: chunk unavailable
)

// Errors returned by the service.
var (
	ErrBadHeader  = errors.New("bulk: malformed header data")
	ErrUnknown    = errors.New("bulk: unknown dataset")
	ErrIncomplete = errors.New("bulk: dataset incomplete at SN")
	ErrTimeout    = errors.New("bulk: transfer timed out")
)

type dataset struct {
	total  int
	chunks [][]byte
	have   int
}

// Module is the bulk-delivery service for one SN.
type Module struct {
	mu       sync.Mutex
	datasets map[string]*dataset
}

// New creates the module.
func New() *Module {
	return &Module{datasets: make(map[string]*dataset)}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcBulk }

// Name implements sn.Module.
func (*Module) Name() string { return "bulk" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// StatArgs are the args of stat.
type StatArgs struct {
	Name string `json:"name"`
}

// StatReply is the reply of stat.
type StatReply struct {
	Total int    `json:"total"`
	Have  int    `json:"have"`
	Hash  string `json:"hash,omitempty"`
}

// OpStat reports a dataset's chunk count and completeness so receivers
// can plan transfers.
var OpStat = control.NewOp[StatArgs, StatReply](wire.SvcBulk, "stat")

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{sn.Handle(OpStat, func(_ sn.Env, _ wire.Addr, a StatArgs) (StatReply, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		ds, ok := m.datasets[a.Name]
		if !ok {
			return StatReply{}, ErrUnknown
		}
		rep := StatReply{Total: ds.total, Have: ds.have}
		if ds.have == ds.total {
			h := sha256.New()
			for _, c := range ds.chunks {
				h.Write(c)
			}
			rep.Hash = fmt.Sprintf("%x", h.Sum(nil))
		}
		return rep, nil
	})}
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[0] {
	case kindPut:
		if len(pkt.Hdr.Data) < 9 {
			return sn.Decision{}, ErrBadHeader
		}
		idx := int(binary.BigEndian.Uint32(pkt.Hdr.Data[1:5]))
		total := int(binary.BigEndian.Uint32(pkt.Hdr.Data[5:9]))
		name := string(pkt.Hdr.Data[9:])
		if total == 0 || idx >= total {
			return sn.Decision{}, ErrBadHeader
		}
		m.mu.Lock()
		ds, ok := m.datasets[name]
		if !ok || ds.total != total {
			ds = &dataset{total: total, chunks: make([][]byte, total)}
			m.datasets[name] = ds
		}
		if ds.chunks[idx] == nil {
			ds.chunks[idx] = append([]byte(nil), pkt.Payload...)
			ds.have++
		}
		m.mu.Unlock()
		return sn.Decision{}, nil

	case kindRequest:
		if len(pkt.Hdr.Data) < 5 {
			return sn.Decision{}, ErrBadHeader
		}
		idx := int(binary.BigEndian.Uint32(pkt.Hdr.Data[1:5]))
		name := string(pkt.Hdr.Data[5:])
		m.mu.Lock()
		ds, ok := m.datasets[name]
		var chunk []byte
		total := 0
		if ok && idx < len(ds.chunks) {
			chunk = ds.chunks[idx]
			total = ds.total
		}
		m.mu.Unlock()
		if chunk == nil {
			hdr := wire.ILPHeader{Service: wire.SvcBulk, Conn: pkt.Hdr.Conn, Data: append([]byte{kindMissing}, pkt.Hdr.Data[1:]...)}
			return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src, Hdr: &hdr, Empty: true}}}, nil
		}
		data := make([]byte, 9, 9+len(name))
		data[0] = kindChunk
		binary.BigEndian.PutUint32(data[1:5], uint32(idx))
		binary.BigEndian.PutUint32(data[5:9], uint32(total))
		data = append(data, name...)
		hdr := wire.ILPHeader{Service: wire.SvcBulk, Conn: pkt.Hdr.Conn, Data: data}
		return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src, Hdr: &hdr, Payload: chunk}}}, nil

	default:
		return sn.Decision{}, fmt.Errorf("bulk: unexpected kind %d", pkt.Hdr.Data[0])
	}
}

// --- Client ------------------------------------------------------------------

// Publish uploads a dataset to the host's first-hop SN.
func Publish(h *host.Host, name string, data []byte) error {
	conn, err := h.NewConn(wire.SvcBulk)
	if err != nil {
		return err
	}
	defer conn.Close()
	total := (len(data) + ChunkSize - 1) / ChunkSize
	if total == 0 {
		total = 1
	}
	for i := 0; i < total; i++ {
		lo, hi := i*ChunkSize, (i+1)*ChunkSize
		if hi > len(data) {
			hi = len(data)
		}
		meta := make([]byte, 9, 9+len(name))
		meta[0] = kindPut
		binary.BigEndian.PutUint32(meta[1:5], uint32(i))
		binary.BigEndian.PutUint32(meta[5:9], uint32(total))
		meta = append(meta, name...)
		if err := conn.Send(meta, data[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Stat queries a dataset's state at the SN serving via.
func Stat(h *host.Host, via wire.Addr, name string) (total, have int, err error) {
	rep, err := OpStat.Call(h, via, StatArgs{Name: name})
	return rep.Total, rep.Have, err
}

// Fetch downloads a dataset from the SN at via, resuming from alreadyHave
// (chunk index → bytes) if non-nil.
func Fetch(h *host.Host, via wire.Addr, name string, alreadyHave map[int][]byte) ([]byte, error) {
	total, have, err := Stat(h, via, name)
	if err != nil {
		return nil, err
	}
	if have < total {
		return nil, ErrIncomplete
	}
	conn, err := h.NewConn(wire.SvcBulk, host.Via(via))
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	chunks := make([][]byte, total)
	missing := 0
	for i := 0; i < total; i++ {
		if c, ok := alreadyHave[i]; ok {
			chunks[i] = c
			continue
		}
		missing++
		meta := make([]byte, 5, 5+len(name))
		meta[0] = kindRequest
		binary.BigEndian.PutUint32(meta[1:5], uint32(i))
		meta = append(meta, name...)
		if err := conn.Send(meta, nil); err != nil {
			return nil, err
		}
	}
	deadline := time.After(10 * time.Second)
	for missing > 0 {
		select {
		case msg, ok := <-conn.Receive():
			if !ok {
				return nil, ErrTimeout
			}
			if len(msg.Hdr.Data) < 9 || msg.Hdr.Data[0] != kindChunk {
				continue
			}
			idx := int(binary.BigEndian.Uint32(msg.Hdr.Data[1:5]))
			if idx < total && chunks[idx] == nil {
				chunks[idx] = msg.Payload
				missing--
			}
		case <-deadline:
			return nil, ErrTimeout
		}
	}
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}
