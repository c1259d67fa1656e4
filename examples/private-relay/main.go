// Private relay: the paper's two-hop privacy pattern (§1.2, §6.2). A
// client reaches a web service such that the ingress SN knows the client
// but not the destination (the envelope is sealed to the egress key), and
// the egress SN knows the destination but not the client. The example
// also runs an oblivious DNS query first — resolving the service name
// without the resolver learning who asked — and finishes by printing what
// each vantage point actually observed.
//
//	go run ./examples/private-relay
package main

import (
	"fmt"
	"log"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/services/odns"
	"interedge/internal/services/relay"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	topo := lab.New()
	defer topo.Close()

	relayDir := relay.NewKeyDirectory()
	resolverKey, err := cryptutil.NewStaticKeypair()
	if err != nil {
		log.Fatal(err)
	}

	var relayMods []*relay.Module
	ed, err := topo.AddEdomain("privacy-net", 2, func(node *sn.SN, e *lab.Edomain) error {
		m, err := relay.New(relayDir, node.Addr())
		if err != nil {
			return err
		}
		relayMods = append(relayMods, m)
		// Privacy services belong in enclaves (§6.2).
		return node.Register(m, sn.WithEnclave())
	})
	if err != nil {
		log.Fatal(err)
	}
	ingressSN, egressSN := ed.SNs[0], ed.SNs[1]

	// The web service the client wants to reach.
	webService, err := topo.NewHost(ed, 1)
	if err != nil {
		log.Fatal(err)
	}
	requests := make(chan host.Message, 4)
	webService.OnService(wire.SvcRelay, func(msg host.Message) { requests <- msg.Clone() })

	// An oDNS resolver on the egress SN knows the name.
	if err := ingressSN.Register(odns.NewRelay(egressSN.Addr())); err != nil {
		log.Fatal(err)
	}
	if err := egressSN.Register(odns.NewResolver(resolverKey, map[string]wire.Addr{
		"private.example": webService.Addr(),
	})); err != nil {
		log.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		log.Fatal(err)
	}

	client, err := topo.NewHost(ed, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Oblivious name resolution.
	dns := odns.NewClient(client, resolverKey.PublicKeyBytes())
	target, err := dns.Query("private.example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oDNS: private.example -> %s (resolver never saw client %s)\n", target, client.Addr())

	// 2. Two-hop relayed request.
	conn, err := relay.Send(client, relayDir, egressSN.Addr(), target, []byte("GET /private"))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	var req host.Message
	select {
	case req = <-requests:
	case <-time.After(5 * time.Second):
		log.Fatal("request never delivered")
	}
	fmt.Printf("service received %q from %s (the egress SN, not the client)\n", req.Payload, req.Src)

	// 3. The reply retraces the relay path.
	if err := relay.Reply(webService, req, []byte("200 OK: secret page")); err != nil {
		log.Fatal(err)
	}
	select {
	case resp := <-conn.Receive():
		fmt.Printf("client received %q from %s (its ingress SN, not the service)\n", resp.Payload, resp.Src)
	case <-time.After(5 * time.Second):
		log.Fatal("reply never arrived")
	}

	// 4. What did each vantage point observe?
	fmt.Println("\nvantage-point audit:")
	egressSawClient := false
	for _, src := range relayMods[1].SeenSources() {
		if src == client.Addr() {
			egressSawClient = true
		}
	}
	fmt.Printf("  egress SN observed the client address: %v\n", egressSawClient)
	fmt.Printf("  relay modules ran inside enclaves (crossings: ingress=%d egress=%d)\n",
		enclCrossings(ingressSN), enclCrossings(egressSN))
	if egressSawClient {
		log.Fatal("privacy violated")
	}
	fmt.Println("client identity and destination were never visible at the same hop")
}

func enclCrossings(node *sn.SN) uint64 {
	if e, ok := node.ModuleEnclave(wire.SvcRelay); ok {
		return e.Crossings()
	}
	return 0
}
