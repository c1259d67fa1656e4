// Last-hop QoS: the paper's household scenario (§6.2) — a receiver behind
// a congested access link tells its first-hop SN the link's bandwidth and
// gives gaming traffic strict priority over a bulk video stream. The
// example saturates the link with bulk packets, then injects gaming
// packets and shows they jump the queue.
//
//	go run ./examples/lasthop-qos
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/services/qos"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	topo := lab.New()
	defer topo.Close()
	ed, err := topo.AddEdomain("home-isp", 1, func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(qos.New())
	})
	if err != nil {
		log.Fatal(err)
	}

	// The household receiver, plus a game server and a video CDN with
	// recognizable source prefixes.
	home, err := topo.NewHost(ed, 0)
	if err != nil {
		log.Fatal(err)
	}
	gameServer, err := topo.NewHostAt("fd00:9a8e::1")
	if err != nil {
		log.Fatal(err)
	}
	videoCDN, err := topo.NewHostAt("fd00:cd11::1")
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range []*host.Host{gameServer, videoCDN} {
		if err := h.Associate(ed.SNs[0].Addr()); err != nil {
			log.Fatal(err)
		}
	}

	// The receiver configures its last-hop QoS: a 100 KB/s access link,
	// gaming traffic at strict priority 0, everything else default.
	cfg := qos.ConfigArgs{
		BandwidthBps: 100_000,
		Mode:         "priority",
		Classes:      []qos.Class{{Prefix: netip.MustParsePrefix("fd00:9a8e::/32"), Level: 0}},
	}
	if _, err := qos.OpConfigure.CallFirstHop(home, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("receiver configured last-hop QoS: 100 KB/s, gaming prefix at priority 0")

	type arrival struct {
		tag  byte
		when time.Time
	}
	arrivals := make(chan arrival, 256)
	home.OnService(wire.SvcQoS, func(msg host.Message) {
		arrivals <- arrival{tag: msg.Payload[0], when: time.Now()}
	})

	// The video CDN floods 40 KB of bulk data (~0.4s of link time).
	videoConn, err := videoCDN.NewConn(wire.SvcQoS)
	if err != nil {
		log.Fatal(err)
	}
	bulk := make([]byte, 1000)
	bulk[0] = 'V'
	for i := 0; i < 40; i++ {
		if err := videoConn.Send(qos.DestData(home.Addr()), bulk); err != nil {
			log.Fatal(err)
		}
	}
	// Let the queue build, then fire three game updates.
	time.Sleep(50 * time.Millisecond)
	gameConn, err := gameServer.NewConn(wire.SvcQoS)
	if err != nil {
		log.Fatal(err)
	}
	gameSent := time.Now()
	for i := 0; i < 3; i++ {
		if err := gameConn.Send(qos.DestData(home.Addr()), []byte{'G'}); err != nil {
			log.Fatal(err)
		}
	}

	games, videosBeforeLastGame, videos := 0, 0, 0
	var lastGameLatency time.Duration
	deadline := time.After(15 * time.Second)
	for games < 3 || videos < 40 {
		select {
		case a := <-arrivals:
			if a.tag == 'G' {
				games++
				lastGameLatency = a.when.Sub(gameSent)
				videosBeforeLastGame = videos
			} else {
				videos++
			}
		case <-deadline:
			log.Fatalf("stalled with %d game / %d video packets", games, videos)
		}
	}
	fmt.Printf("all 3 gaming packets delivered in %v with only %d/40 video packets ahead of them\n",
		lastGameLatency.Round(time.Millisecond), videosBeforeLastGame)
	fmt.Printf("the remaining %d video packets drained afterwards at link rate\n", 40-videosBeforeLastGame)
	if videosBeforeLastGame > 20 {
		log.Fatal("priority scheduling did not take effect")
	}
	fmt.Println("gaming latency protected while streaming kept its bandwidth")
}
