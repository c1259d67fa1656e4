package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/wire"
)

// churner is fleet-churn's second generator goroutine: writes beside the
// reads. It republishes the signed lookup record of a data host (every
// SN's resolution cache and decision cache invalidate that address) and
// redials the pipe of a churn host (a fresh handshake and key epoch through
// the shared engine and the host's SN). Churn hosts carry no data, so a
// rekey never has a packet in flight to lose.
//
// The schedule is a ratio to the reads, one write per so many verified
// deliveries, not a rate per second: the cost of the writes per delivered
// packet is then the same on a fast box, a slow one and one that loses a
// third of its CPU time to a neighbour, which a fixed rate per second made
// swing by a factor of five.
type churner struct {
	fleet        *lab.Fleet
	ring         int
	rng          *rand.Rand
	delivered    func() uint64 // the load generator's verified deliveries
	publishEvery uint64        // deliveries per republish
	redialEvery  uint64        // deliveries per redial

	published atomic.Uint64
	redialed  atomic.Uint64
	errors    atomic.Uint64

	quit    chan struct{}
	done    chan struct{}
	started time.Time
	ran     time.Duration
	base    uint64 // deliveries before the churn started
	reads   uint64 // deliveries while it ran
}

func newChurner(env *runEnv, fleet *lab.Fleet, ring int, delivered func() uint64) *churner {
	return &churner{
		fleet:        fleet,
		ring:         ring,
		rng:          rand.New(rand.NewSource(env.seed ^ 0x636875726e)),
		delivered:    delivered,
		publishEvery: env.sz.publishEvery,
		redialEvery:  env.sz.redialEvery,
	}
}

func (c *churner) start() {
	c.quit, c.done = make(chan struct{}), make(chan struct{})
	c.started, c.base = time.Now(), c.delivered()
	go c.loop()
}

// stop ends the churn and waits for the goroutine; calling it twice, or
// without start, is harmless.
func (c *churner) stop() {
	if c.quit == nil {
		return
	}
	close(c.quit)
	<-c.done
	c.ran += time.Since(c.started)
	c.reads += c.delivered() - c.base
	c.quit = nil
}

func (c *churner) loop() {
	defer close(c.done)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	pub0, red0 := c.published.Load(), c.redialed.Load()
	nextChurn := 0
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
		}
		// Catch up to the schedule, so that a late tick does not lower the
		// ratio; the cap per tick keeps a churner that cannot keep up
		// responsive to quit (and its shortfall visible in achieved).
		reads := c.delivered() - c.base
		for n := 0; n < 64 && c.published.Load()-pub0 < reads/c.publishEvery; n++ {
			c.republish(c.rng.Intn(c.ring))
		}
		for n := 0; n < 16 && c.redialed.Load()-red0 < reads/c.redialEvery; n++ {
			h := c.fleet.Hosts[c.ring+nextChurn%(len(c.fleet.Hosts)-c.ring)]
			nextChurn++
			if fh, err := h.FirstHop(); err != nil || c.fleet.Engine.Redial(h.Addr(), fh) != nil {
				c.errors.Add(1)
			}
			c.redialed.Add(1)
		}
	}
}

func (c *churner) republish(i int) {
	h := c.fleet.Hosts[i]
	fh, err := h.FirstHop()
	if err != nil {
		c.errors.Add(1)
		c.published.Add(1)
		return
	}
	sns := []wire.Addr{fh}
	rec := lookup.AddrRecord{Addr: h.Addr(), Owner: h.Identity().PublicKey(), SNs: sns}
	sig := lookup.SignAddrRecord(h.Identity().Signing, h.Addr(), sns)
	if err := c.fleet.Topo.Global.RegisterAddress(rec, sig); err != nil {
		c.errors.Add(1)
	}
	c.published.Add(1)
}

// achieved returns the share of its schedule the churner met, republishes
// and redials, over the deliveries made while it ran.
func (c *churner) achieved() (publish, redial float64) {
	return ratio(float64(c.published.Load()), float64(c.reads/c.publishEvery)),
		ratio(float64(c.redialed.Load()), float64(c.reads/c.redialEvery))
}
