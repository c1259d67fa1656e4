package pubsub

import (
	"interedge/internal/host"
	"interedge/internal/services/groupfan"
	"interedge/internal/wire"
)

// Handler receives one delivered message.
type Handler = groupfan.Handler

// Client is the host-side pub/sub support: a groupfan.Client under the
// pub/sub vocabulary.
type Client struct{ g *groupfan.Client }

// NewClient attaches pub/sub client logic to a host.
func NewClient(h *host.Host) (*Client, error) {
	return &Client{g: groupfan.NewClient(h, wire.SvcPubSub)}, nil
}

// Subscribe joins a topic with the given credentials and registers fn for
// deliveries. auth may be nil for open topics. When replay is true, the
// SN replays its retained recent messages.
func (c *Client) Subscribe(topic string, auth []byte, replay bool, fn Handler) error {
	return c.g.Join(groupfan.Args{Group: topic, Auth: auth, Replay: replay}, fn)
}

// Unsubscribe leaves a topic.
func (c *Client) Unsubscribe(topic string) error { return c.g.Leave(topic) }

// RegisterSender announces the host's intent to publish to a topic (§6.2
// sender registration).
func (c *Client) RegisterSender(topic string) error { return c.g.RegisterSender(topic) }

// Publish sends a message to a topic. The host must have registered as a
// sender first.
func (c *Client) Publish(topic string, msg []byte) error { return c.g.Send(topic, msg) }

// Reestablish re-issues every subscription and sender registration against
// the host's (possibly new) first-hop SN — §3.3's host-driven state
// reconstruction after an SN failure.
func (c *Client) Reestablish() error { return c.g.Reestablish() }
