// Quickstart: the smallest complete InterEdge deployment — one edomain,
// one service node running the echo service, and one host that associates,
// opens a service connection, and round-trips a message.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"interedge/internal/lab"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	// 1. Build the deployment: substrate, lookup service, peering fabric.
	topo := lab.New()
	defer topo.Close()

	// 2. One edomain with one SN running the echo service module.
	ed, err := topo.AddEdomain("quickstart", 1, func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(echo.New())
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. An InterEdge host: it handshakes a pipe with its first-hop SN
	//    (keying ILP) and publishes its signed address record.
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host %s associated with SN %s\n", h.Addr(), ed.SNs[0].Addr())

	// 4. Open a service connection — the explicit invocation style of the
	//    paper's §3.2: the service is named in the ILP header.
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// 5. Send and await the echo.
	for i := 1; i <= 3; i++ {
		msg := fmt.Sprintf("ping %d", i)
		start := time.Now()
		if err := conn.Send(nil, []byte(msg)); err != nil {
			log.Fatal(err)
		}
		select {
		case reply := <-conn.Receive():
			fmt.Printf("echoed %q in %v\n", reply.Payload, time.Since(start).Round(time.Microsecond))
		case <-time.After(3 * time.Second):
			log.Fatal("timed out")
		}
	}

	c := ed.SNs[0].Telemetry().Snapshot()
	fmt.Printf("SN counters: rx=%.0f slow-path=%.0f forwarded=%.0f\n",
		c.Value("sn_rx_packets_total"), c.Value("sn_slowpath_sent_total"), c.Value("sn_forwarded_total"))
}
