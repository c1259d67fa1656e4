// Command interedge-lab stands up a complete in-process InterEdge
// deployment — the executable Figure 1 — and runs a scenario tour through
// the architecture: inter-edomain forwarding, pub/sub across IESPs,
// oblivious DNS, DDoS protection, attestation, and the settlement-free
// peering ledger.
//
//	interedge-lab            # run the full tour
//	interedge-lab -scenario pubsub
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/services/attest"
	"interedge/internal/services/ddos"
	"interedge/internal/services/ipfwd"
	"interedge/internal/services/odns"
	"interedge/internal/services/pubsub"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario: all, ipfwd, pubsub, odns, ddos, attest")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for the /metrics exposition endpoint (empty disables)")
	soakMode := flag.Bool("soak", false, "run compressed-time soak scenarios with SLO gates instead of the tour")
	soakScenarios := flag.String("soak-scenarios", "all", "comma-separated soak scenario names, or all")
	soakSeeds := flag.String("soak-seeds", "1,7,42", "comma-separated substrate seeds for soak runs")
	soakOut := flag.String("soak-out", ".", "directory for SOAK_<scenario>.json capacity reports")
	fleetMode := flag.Bool("fleet", false, "build the weightless host fleet and run the million-host soak instead of the tour")
	fleetSNs := flag.Int("fleet-sns", 100, "fleet service-node count")
	fleetHosts := flag.Int("fleet-hosts", 1_000_000, "fleet lite-host count")
	fleetRounds := flag.Int("fleet-rounds", 5, "full-fleet send sweeps in the fleet run")
	fleetSeed := flag.Int64("fleet-seed", 1, "substrate seed for the fleet run")
	fleetOut := flag.String("fleet-out", ".", "directory for the SOAK_million-host.json report")
	flag.Parse()

	if *fleetMode {
		if err := runFleet(*fleetSNs, *fleetHosts, *fleetRounds, *fleetSeed, *fleetOut); err != nil {
			fail("fleet: %v", err)
		}
		return
	}

	if *soakMode {
		if err := runSoak(*soakScenarios, *soakSeeds, *soakOut); err != nil {
			fail("soak: %v", err)
		}
		return
	}

	topo, world, err := build()
	if err != nil {
		fail("build topology: %v", err)
	}
	defer topo.Close()
	fmt.Println("InterEdge lab: 2 edomains x 2 SNs, full-mesh peering, global lookup")
	if *metricsAddr != "" {
		if err := serveMetrics(*metricsAddr, world); err != nil {
			fail("metrics listen: %v", err)
		}
	}
	fmt.Println()

	scenarios := map[string]func(*lab.Topology, *worldState) error{
		"ipfwd":  scenarioIPFwd,
		"pubsub": scenarioPubSub,
		"odns":   scenarioODNS,
		"ddos":   scenarioDDoS,
		"attest": scenarioAttest,
	}
	order := []string{"ipfwd", "pubsub", "odns", "ddos", "attest"}
	if *scenario != "all" {
		fn, ok := scenarios[*scenario]
		if !ok {
			fail("unknown scenario %q", *scenario)
		}
		if err := fn(topo, world); err != nil {
			fail("%s: %v", *scenario, err)
		}
		return
	}
	for _, name := range order {
		if err := scenarios[name](topo, world); err != nil {
			fail("%s: %v", name, err)
		}
	}
	fmt.Println("settlement-free peering ledger:")
	for _, rec := range topo.Fabric.Ledger() {
		fmt.Printf("  %s -> %s: %d packets, %d bytes, fees owed: %d\n",
			rec.From, rec.To, rec.Packets, rec.Bytes, rec.FeesOwed)
	}
	fmt.Println("\nall scenarios passed")
}

// serveMetrics exposes every SN's registry on one /metrics endpoint, each
// node's series distinguished by an injected node="<addr>" label.
func serveMetrics(addr string, world *worldState) error {
	type namedSN struct {
		name string
		node *sn.SN
	}
	var nodes []namedSN
	for _, ed := range []*lab.Edomain{world.edA, world.edB} {
		for i, node := range ed.SNs {
			nodes = append(nodes, namedSN{fmt.Sprintf("%s/sn%d", ed.ID, i), node})
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, n := range nodes {
			_ = n.node.Telemetry().Snapshot().WriteProm(w, "node", n.name)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

type worldState struct {
	edA, edB    *lab.Edomain
	resolverKey cryptutil.StaticKeypair
	owner       cryptutil.SigningKeypair
}

func build() (*lab.Topology, *worldState, error) {
	topo := lab.New()
	world := &worldState{}
	var err error
	if world.resolverKey, err = cryptutil.NewStaticKeypair(); err != nil {
		return nil, nil, err
	}
	if world.owner, err = cryptutil.NewSigningKeypair(); err != nil {
		return nil, nil, err
	}
	setup := func(node *sn.SN, ed *lab.Edomain) error {
		if err := node.Register(ipfwd.New(topo.NewNodeResolver(ed, node), topo.Fabric)); err != nil {
			return err
		}
		if err := node.Register(pubsub.New(ed.Core, topo.Fabric, topo.Global)); err != nil {
			return err
		}
		if err := node.Register(ddos.New()); err != nil {
			return err
		}
		return node.Register(attest.New(node.TPM()))
	}
	if world.edA, err = topo.AddEdomain("ed-a", 2, setup); err != nil {
		return nil, nil, err
	}
	if world.edB, err = topo.AddEdomain("ed-b", 2, setup); err != nil {
		return nil, nil, err
	}
	// oDNS: relay on ed-a SN 1, resolver on ed-b SN 1.
	relaySN, resolverSN := world.edA.SNs[1], world.edB.SNs[1]
	if err := relaySN.Register(odns.NewRelay(resolverSN.Addr())); err != nil {
		return nil, nil, err
	}
	if err := resolverSN.Register(odns.NewResolver(world.resolverKey, map[string]wire.Addr{
		"service.example": wire.MustAddr("fd00::5e"),
	})); err != nil {
		return nil, nil, err
	}
	if err := topo.Mesh(); err != nil {
		return nil, nil, err
	}
	if err := topo.Global.CreateGroup("lab-topic", world.owner.Public); err != nil {
		return nil, nil, err
	}
	if err := topo.Global.PostOpenStatement("lab-topic",
		lookup.SignOpenStatement(world.owner, "lab-topic")); err != nil {
		return nil, nil, err
	}
	return topo, world, nil
}

func scenarioIPFwd(topo *lab.Topology, w *worldState) error {
	fmt.Println("[ipfwd] host in ed-a sends to host in ed-b through gateway pipes")
	a, err := topo.NewHost(w.edA, 1)
	if err != nil {
		return err
	}
	b, err := topo.NewHost(w.edB, 1)
	if err != nil {
		return err
	}
	inbox := make(chan host.Message, 1)
	b.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg })
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(ipfwd.DestData(b.Addr()), []byte("hello across edomains")); err != nil {
		return err
	}
	select {
	case msg := <-inbox:
		fmt.Printf("  delivered: %q via %s\n\n", msg.Payload, msg.Src)
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("delivery timed out")
	}
}

func scenarioPubSub(topo *lab.Topology, w *worldState) error {
	fmt.Println("[pubsub] publisher in ed-a, subscribers in both edomains")
	pub, err := topo.NewHost(w.edA, 0)
	if err != nil {
		return err
	}
	pubClient, err := pubsub.NewClient(pub)
	if err != nil {
		return err
	}
	recv := make(chan string, 4)
	for i, spot := range []struct {
		ed  *lab.Edomain
		idx int
	}{{w.edA, 1}, {w.edB, 0}} {
		sub, err := topo.NewHost(spot.ed, spot.idx)
		if err != nil {
			return err
		}
		subClient, err := pubsub.NewClient(sub)
		if err != nil {
			return err
		}
		tag := fmt.Sprintf("subscriber-%d", i)
		if err := subClient.Subscribe("lab-topic", nil, false, func(topic string, msg []byte) {
			recv <- fmt.Sprintf("%s got %q", tag, msg)
		}); err != nil {
			return err
		}
	}
	if err := pubClient.RegisterSender("lab-topic"); err != nil {
		return err
	}
	if err := pubClient.Publish("lab-topic", []byte("breaking news")); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		select {
		case line := <-recv:
			fmt.Printf("  %s\n", line)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("subscriber %d never received", i)
		}
	}
	fmt.Println()
	return nil
}

func scenarioODNS(topo *lab.Topology, w *worldState) error {
	fmt.Println("[odns] oblivious query: relay never sees the name, resolver never sees the client")
	client, err := topo.NewHost(w.edA, 1)
	if err != nil {
		return err
	}
	c := odns.NewClient(client, w.resolverKey.PublicKeyBytes())
	addr, err := c.Query("service.example")
	if err != nil {
		return err
	}
	fmt.Printf("  service.example resolved to %s\n\n", addr)
	return nil
}

func scenarioDDoS(topo *lab.Topology, w *worldState) error {
	fmt.Println("[ddos] attacker exceeds the target's rate; drop rule offloads to the fast path")
	target, err := topo.NewHost(w.edA, 0)
	if err != nil {
		return err
	}
	if _, err := ddos.OpProtect.CallFirstHop(target, ddos.ProtectArgs{
		Target: target.Addr(), Rate: 100, Burst: 200,
	}); err != nil {
		return err
	}
	attacker, err := topo.NewHost(w.edA, 0)
	if err != nil {
		return err
	}
	conn, err := attacker.NewConn(wire.SvcDDoS)
	if err != nil {
		return err
	}
	defer conn.Close()
	payload := make([]byte, 100)
	for i := 0; i < 30; i++ {
		if err := conn.Send(ddos.TargetData(target.Addr()), payload); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	node := w.edA.SNs[0]
	for node.Counters().RuleDrops == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no fast-path drops recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := node.Counters()
	fmt.Printf("  fast-path drops: %d (slow path saw only %d packets)\n\n", c.RuleDrops, c.SlowPathSent)
	return nil
}

func scenarioAttest(topo *lab.Topology, w *worldState) error {
	fmt.Println("[attest] client verifies a TPM quote from its first-hop SN")
	client, err := topo.NewHost(w.edA, 0)
	if err != nil {
		return err
	}
	nonce := cryptutil.RandomBytes(16)
	wq, err := attest.RequestQuote(client, w.edA.SNs[0].Addr(), nonce)
	if err != nil {
		return err
	}
	if _, err := attest.Verify(w.edA.SNs[0].TPM().EndorsementKey(), wq, nonce); err != nil {
		return err
	}
	fmt.Printf("  quote over %d PCRs verified against the SN's endorsement key\n\n", len(wq.PCRs))
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
