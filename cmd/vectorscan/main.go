// Command vectorscan audits DPS-protected websites against the eight
// origin-exposure attack vectors of Table I (plus residual resolution,
// which cmd/rrscan covers). It builds a world, feeds a passive-DNS archive
// from pre-adoption history, and reports how many protected sites leak
// their origin through at least one vector.
package main

import (
	"flag"
	"fmt"
	"os"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/match"
	"rrdps/internal/core/report"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/pdns"
	"rrdps/internal/vectors"
	"rrdps/internal/world"
)

func main() {
	sites := flag.Int("sites", 400, "population size")
	seed := flag.Int64("seed", 1815, "world seed")
	maxTargets := flag.Int("targets", 40, "maximum protected sites to audit")
	flag.Parse()
	if *sites <= 0 || *maxTargets <= 0 {
		fmt.Fprintln(os.Stderr, "vectorscan: -sites and -targets must be positive")
		os.Exit(2)
	}

	cfg := world.PaperConfig(*sites)
	cfg.Seed = *seed
	w := world.New(cfg)

	// Build the attacker's passive-DNS archive from pre-scan snapshots:
	// real-world databases carry years of history, so feed the archive a
	// fortnight of observations while the world churns (sites that join a
	// DPS during this window leave their old addresses behind).
	resolver := w.NewResolver(netsim.RegionOregon)
	var domains []alexa.Domain
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	collector := collect.New(resolver, domains)
	archive := pdns.NewArchive()
	for day := 0; day < 14; day += 2 {
		collector.CollectStream(w.Day(), func(rec collect.Record) {
			archive.Record(w.Day(), rec.Domain.WWW(), rec.Addrs...)
		})
		w.AdvanceDays(2)
	}

	scanner := vectors.New(vectors.Config{
		Network:    w.Net,
		Resolver:   w.NewResolver(netsim.RegionLondon),
		HTTP:       w.NewHTTPClient(netsim.RegionLondon),
		Matcher:    match.New(w.Registry, dps.Profiles()),
		Archive:    archive,
		ScanSpaces: w.OriginSpaces(),
		ListenAddr: w.Alloc.NextAddr(),
		Region:     netsim.RegionLondon,
	})

	res := scanner.Audit(w.Sites(), w.Day(), *maxTargets)
	fmt.Print(report.TableI(res))
	fmt.Println("(Vissers et al., CCS'15, report >70% on the real Internet)")
}
