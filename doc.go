// Package rrdps is a full reproduction of "Your Remnant Tells Secret:
// Residual Resolution in DDoS Protection Services" (Jin, Hao, Wang,
// Cotton — IEEE/IFIP DSN 2018) as a Go library.
//
// The repository contains two layers:
//
//   - A simulated Internet substrate: a DNS ecosystem with real wire-format
//     messages (internal/dnsmsg, dnszone, dnsserver, dnsresolver), an
//     IPv4/AS space (internal/ipspace), an HTTP layer with origins and
//     caching reverse-proxy edges (internal/httpsim, internal/edge), the
//     eleven Table II DPS/CDN providers with their rerouting mechanisms and
//     termination policies (internal/dps), a ranked website population with
//     administrator churn (internal/alexa, internal/website), and a
//     composition root that wires it all (internal/world).
//
//   - The paper's measurement system: daily DNS record collection
//     (internal/core/collect), the append-only delta-encoded snapshot
//     store with name interning and cursor replay (internal/snapstore),
//     A/CNAME/NS matching (internal/core/match), Table III status
//     classification (internal/core/status), the Table IV
//     behaviour FSM (internal/core/behavior), HTML verification
//     (internal/core/htmlverify), the residual-resolution scanners
//     (internal/core/rrscan), the Fig. 8 filtering pipeline
//     (internal/core/filter), week-over-week exposure tracking
//     (internal/core/exposure), campaign orchestration
//     (internal/core/experiment), and table/figure rendering
//     (internal/core/report). internal/attack adds the Fig. 1 DDoS
//     bypass simulation.
//
// Snapshot flow: the campaign runners stream each day's collection
// straight into a snapshot store (collector → store → streaming
// classifier/differ → campaign aggregation) and bound retention with
// SnapWindow, so memory stays flat over campaign length. Days are read
// back only through the store's cursors and views; the original map
// pipeline survives only in the tests, as the reference the streaming
// pipeline is checked against.
//
// The lookup service (internal/serve, cmd/rrserve) answers exposure
// queries over HTTP from a campaign's checkpoint directory. Every epoch
// it serves is rebuilt with the campaigns' own recovery rule (newest
// checkpoint plus the sealed WAL rounds after it), loaded once or
// refreshed while another process keeps writing the directory.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmark harness in bench_test.go regenerates every table and
// figure of the paper's evaluation.
package rrdps
