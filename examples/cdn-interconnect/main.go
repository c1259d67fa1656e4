// CDN interconnect: the paper's §5 coordination example made concrete. An
// application provider publishes content; two IESPs (a premium global one
// and a cheap regional one) publish rate cards; a broker stitches coverage
// and the nondiscrimination audit verifies §5's neutrality requirement.
// Clients in each region then fetch through their local IESP's cache:
// first a miss (origin fetch), then hits served at the edge.
//
//	go run ./examples/cdn-interconnect
package main

import (
	"fmt"
	"log"

	"interedge/internal/broker"
	"interedge/internal/lab"
	"interedge/internal/services/cdncache"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	topo := lab.New()
	defer topo.Close()

	caches := map[string]*cdncache.Module{}
	mk := func(region string) func(node *sn.SN, ed *lab.Edomain) error {
		return func(node *sn.SN, ed *lab.Edomain) error {
			m := cdncache.New(1 << 20)
			caches[region] = m
			return node.Register(m)
		}
	}
	west, err := topo.AddEdomain("iesp-west", 1, mk("west"))
	if err != nil {
		log.Fatal(err)
	}
	east, err := topo.AddEdomain("iesp-east", 1, mk("east"))
	if err != nil {
		log.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		log.Fatal(err)
	}

	// --- The economic layer (§5) -----------------------------------------
	exchange := broker.NewExchange()
	coverage := broker.NewCoverageDirectory()
	must(exchange.Publish(broker.RateCard{Provider: "globalco", Entries: []broker.RateEntry{
		{Service: wire.SvcCDNCache, Region: "west", Tiers: []broker.Tier{{MinVolumeGB: 0, PricePerGB: 90}}},
		{Service: wire.SvcCDNCache, Region: "east", Tiers: []broker.Tier{{MinVolumeGB: 0, PricePerGB: 90}}},
	}}))
	coverage.Declare("globalco", "west", "east")
	must(exchange.Publish(broker.RateCard{Provider: "east-carrier", Entries: []broker.RateEntry{
		{Service: wire.SvcCDNCache, Region: "east", Tiers: []broker.Tier{{MinVolumeGB: 0, PricePerGB: 35}}},
	}}))
	coverage.Declare("east-carrier", "east")

	b := broker.NewBroker(exchange, coverage)
	plan, err := b.Stitch(wire.SvcCDNCache, 500, "west", "east")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("broker stitched coverage from published rate cards:")
	for region, provider := range plan.Assignments {
		price, _ := exchange.Quote(provider, wire.SvcCDNCache, broker.Region(region), 500)
		fmt.Printf("  %-5s -> %-12s at %d per GB\n", region, provider, price)
	}
	fmt.Printf("  total for 500 GB/region: %d (all-global would be %d)\n", plan.TotalCost, uint64(500*90*2))
	if _, err := b.Execute("app-provider", wire.SvcCDNCache, 500, plan); err != nil {
		log.Fatal(err)
	}
	must(exchange.AuditNondiscrimination())
	fmt.Println("  nondiscrimination audit passed")
	fmt.Println()

	// --- The data plane ---------------------------------------------------
	origin, err := topo.NewHost(west, 0)
	if err != nil {
		log.Fatal(err)
	}
	content := []byte("<html>the application provider's landing page</html>")
	cdncache.ServeOrigin(origin, map[string][]byte{"index.html": content})
	// Publish the origin at both IESPs' caches.
	for _, ed := range []*lab.Edomain{west, east} {
		h, err := topo.NewHost(ed, 0)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cdncache.OpPublish.CallFirstHop(h, cdncache.PublishArgs{
			Name: "index.html", Origin: origin.Addr(),
		}); err != nil {
			log.Fatal(err)
		}
	}

	for _, spot := range []struct {
		region string
		ed     *lab.Edomain
	}{{"west", west}, {"east", east}} {
		client, err := topo.NewHost(spot.ed, 0)
		if err != nil {
			log.Fatal(err)
		}
		c := cdncache.NewClient(client)
		for i := 0; i < 2; i++ {
			data, err := c.Get("index.html")
			if err != nil {
				log.Fatal(err)
			}
			_ = data
		}
		st := caches[spot.region].Stats()
		fmt.Printf("client in %-5s: 2 fetches -> %d origin fetch, %d cache hit\n",
			spot.region, st.OriginFetches, st.Hits)
	}
	fmt.Println("\ncontent served from each IESP's edge after one origin fetch per region")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
