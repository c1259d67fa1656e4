// Package interedge is a Go reproduction of "An Architecture For Edge
// Networking Services" (Brown et al., ACM SIGCOMM 2024): the InterEdge —
// an interconnected, neutral architecture for edge networking services.
//
// The implementation lives under internal/ and is organized by subsystem:
//
//   - internal/wire, internal/psp, internal/handshake — the ILP
//     interposition-layer protocol and its PSP-style per-packet encryption;
//   - internal/pipe — host↔SN and SN↔SN pipes, with receive processing
//     sharded across workers by source address (per-source order is
//     preserved; independent peers decrypt concurrently);
//   - internal/sn — the service node: pipe-terminus, striped decision
//     cache, and the common execution environment for service modules
//     (see DESIGN.md "Concurrent fast path" for the sharding scheme and
//     its ordering guarantee);
//   - internal/edomain, internal/lookup, internal/peering — edomains,
//     the global lookup service, and settlement-free full-mesh peering;
//   - internal/host — InterEdge host support and the extended network API;
//   - internal/services/... — the standardized service modules (pub/sub,
//     multicast, anycast, oDNS, private relay, mixnet, DDoS protection,
//     last-hop QoS, CDN caching, message queues, ordered delivery, bulk
//     delivery, VPN, ZTNA, SD-WAN, firewall, attestation, mobility);
//   - internal/broker — published rate cards, the nondiscrimination audit,
//     and coverage-stitching brokers;
//   - internal/enclave, internal/tpm — simulated secure enclaves and TPM
//     attestation;
//   - internal/tunnel — WireGuard-style tunnels for the Appendix C
//     direct-peering benchmark;
//   - internal/lab — in-process deployments (the executable Figure 1).
//
// The benchmark in benchmark/ (bash benchmark/run.sh) measures every
// quantitative result in the paper's evaluation through the real paths;
// see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured numbers.
package interedge
