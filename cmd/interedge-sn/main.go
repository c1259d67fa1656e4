// Command interedge-sn runs one InterEdge service node over real UDP, for
// multi-process deployments. A directory file maps InterEdge addresses to
// UDP endpoints (the static-routing stand-in for production discovery):
//
//	fd00::100 127.0.0.1:7000
//	fd00::1   127.0.0.1:7001
//
// Usage:
//
//	interedge-sn -addr fd00::100 -listen 127.0.0.1:7000 \
//	    -directory nodes.txt -services echo,null
//
// The node prints its identity key, registers the requested service
// modules, and serves until interrupted, printing counters every 10s.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/services/null"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func main() {
	addr := flag.String("addr", "fd00::100", "InterEdge address of this SN")
	listen := flag.String("listen", "127.0.0.1:7000", "UDP listen endpoint")
	directory := flag.String("directory", "", "path to the address-to-UDP directory file")
	services := flag.String("services", "echo,null", "comma-separated service modules to register")
	statsEvery := flag.Duration("stats", 10*time.Second, "counter print interval (0 disables)")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for the /metrics exposition endpoint (empty disables)")
	flag.Parse()

	dir := netsim.NewUDPDirectory()
	if *directory != "" {
		if err := loadDirectory(dir, *directory); err != nil {
			fail("load directory: %v", err)
		}
	}
	tr, err := netsim.NewUDPTransport(wire.MustAddr(*addr), *listen, dir)
	if err != nil {
		fail("bind: %v", err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		fail("identity: %v", err)
	}
	node, err := sn.New(sn.Config{
		Transport: tr,
		Identity:  id,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fail("start SN: %v", err)
	}
	defer node.Close()

	for _, svc := range strings.Split(*services, ",") {
		switch strings.TrimSpace(svc) {
		case "echo":
			err = node.Register(echo.New())
		case "null":
			err = node.Register(null.New())
		case "":
		default:
			fail("unknown service %q (this binary bundles: echo, null)", svc)
		}
		if err != nil {
			fail("register %s: %v", svc, err)
		}
	}

	fmt.Printf("interedge-sn %s listening on %s\n", *addr, *listen)
	fmt.Printf("identity: %s\n", hex.EncodeToString(id.PublicKey()))

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = node.Telemetry().Snapshot().WriteProm(w, "node", *addr)
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail("metrics listen: %v", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
		go func() { _ = http.Serve(ln, mux) }()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			return
		case <-tick:
			c := node.Telemetry().Snapshot()
			var queueDrops uint64
			for _, h := range node.ModuleHealth() {
				queueDrops += h.Dropped
			}
			fmt.Printf("rx=%.0f fast=%.0f slow=%.0f fwd=%.0f drops(rule=%.0f queue=%d nomod=%.0f)\n",
				c.Value("sn_rx_packets_total"), c.Value("sn_fastpath_hits_total"),
				c.Value("sn_slowpath_sent_total"), c.Value("sn_forwarded_total"),
				c.Value("sn_rule_drops_total"), queueDrops, c.Value("sn_no_module_drops_total"))
		}
	}
}

func loadDirectory(dir *netsim.UDPDirectory, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("bad directory line: %q", line)
		}
		ep, err := net.ResolveUDPAddr("udp", fields[1])
		if err != nil {
			return fmt.Errorf("bad endpoint %q: %w", fields[1], err)
		}
		dir.Register(wire.MustAddr(fields[0]), ep)
	}
	return scanner.Err()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
