package groupfan

import (
	"bytes"
	"fmt"
	"sync"

	"interedge/internal/host"
	"interedge/internal/wire"
)

// Handler receives one delivery for a joined group; payload is its to keep.
type Handler func(group string, payload []byte)

type joined struct {
	args Args
	fn   Handler
}

// Client is the host side of one group service (§3.1: the host component
// implements "client-side support for services — such as pub/sub … that
// require host logic"). It keeps every join and sender registration it
// made, so Reestablish can re-issue them after an SN failure — the
// host-driven state reconstruction of §3.3.
type Client struct {
	h   *host.Host
	svc wire.ServiceID
	ops Ops

	mu      sync.Mutex
	conn    *host.Conn
	joined  map[string]joined
	senders map[string]struct{}
}

// NewClient attaches the client of service svc to a host.
func NewClient(h *host.Host, svc wire.ServiceID) *Client {
	c := &Client{
		h:       h,
		svc:     svc,
		ops:     OpsOf(svc),
		joined:  make(map[string]joined),
		senders: make(map[string]struct{}),
	}
	h.OnService(svc, c.onMessage)
	return c
}

// onMessage hands a delivery to its group's Handler. The host's message is
// valid only for this call, so the Handler gets a copy of the payload: a
// Handler may keep what it is given.
func (c *Client) onMessage(msg host.Message) {
	kind, group, err := ParseHeader(msg.Hdr.Data)
	if err != nil || kind != KindDeliver {
		return
	}
	c.mu.Lock()
	j, ok := c.joined[group]
	c.mu.Unlock()
	if ok {
		j.fn(group, bytes.Clone(msg.Payload))
	}
}

// Join joins a.Group and hands its deliveries to fn. The handler is live
// before the request leaves, since replayed messages can beat the reply; a
// rejected join puts back the membership the group had before.
func (c *Client) Join(a Args, fn Handler) error {
	c.mu.Lock()
	prev, had := c.joined[a.Group]
	c.joined[a.Group] = joined{args: a, fn: fn}
	c.mu.Unlock()
	if _, err := c.ops.Join.CallFirstHop(c.h, a); err != nil {
		c.mu.Lock()
		if had {
			c.joined[a.Group] = prev
		} else {
			delete(c.joined, a.Group)
		}
		c.mu.Unlock()
		return err
	}
	return nil
}

// Leave leaves a group.
func (c *Client) Leave(group string) error {
	c.mu.Lock()
	delete(c.joined, group)
	c.mu.Unlock()
	_, err := c.ops.Leave.CallFirstHop(c.h, Args{Group: group})
	return err
}

// RegisterSender announces the host's intent to send to a group (§6.2
// sender registration).
func (c *Client) RegisterSender(group string) error {
	if _, err := c.ops.RegisterSender.CallFirstHop(c.h, Args{Group: group}); err != nil {
		return err
	}
	c.mu.Lock()
	c.senders[group] = struct{}{}
	c.mu.Unlock()
	return nil
}

// Send sends a payload to a group. The host must have registered as a
// sender first.
func (c *Client) Send(group string, payload []byte) error {
	conn, err := c.sendConn()
	if err != nil {
		return err
	}
	return conn.Send(HeaderData(KindSend, group), payload)
}

// sendConn returns the send connection, opened on first use.
func (c *Client) sendConn() (*host.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := c.h.NewConn(c.svc)
		if err != nil {
			return nil, fmt.Errorf("%s: open send connection: %w", c.svc, err)
		}
		c.conn = conn
	}
	return c.conn, nil
}

// Reestablish re-issues every join and sender registration at the host's
// (possibly new) first-hop SN — §3.3's host-driven state reconstruction
// after an SN failure.
func (c *Client) Reestablish() error {
	c.mu.Lock()
	joins := make([]Args, 0, len(c.joined))
	for _, j := range c.joined {
		joins = append(joins, j.args)
	}
	senders := make([]string, 0, len(c.senders))
	for group := range c.senders {
		senders = append(senders, group)
	}
	// The send connection may be pinned to the failed SN; reopen lazily.
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()

	for _, a := range joins {
		if _, err := c.ops.Join.CallFirstHop(c.h, a); err != nil {
			return fmt.Errorf("%s: rejoin %q: %w", c.svc, a.Group, err)
		}
	}
	for _, group := range senders {
		if _, err := c.ops.RegisterSender.CallFirstHop(c.h, Args{Group: group}); err != nil {
			return fmt.Errorf("%s: re-register sender %q: %w", c.svc, group, err)
		}
	}
	return nil
}
