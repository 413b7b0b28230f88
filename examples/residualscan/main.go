// Residual scan: walk the Fig. 8 filtering pipeline step by step on a
// mid-size world — direct scan of Cloudflare's nameservers, IP-matching
// filter, A-matching filter (hidden records), HTML verification filter
// (verified origins).
//
//	go run ./examples/residualscan
package main

import (
	"fmt"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/filter"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

func main() {
	cfg := world.PaperConfig(1200)
	cfg.Seed = 7
	cfg.LeaveRate *= 10
	cfg.SwitchRate *= 10
	w := world.New(cfg)
	// Age the world: four weeks of churn leave residual records behind.
	w.AdvanceDays(28)

	resolver := w.NewResolver(netsim.RegionOregon)
	var domains []alexa.Domain
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	collector := collect.New(resolver, domains)
	matcher := match.New(w.Registry, dps.Profiles())

	// Step 0: discover Cloudflare's NS-rerouting nameservers from a
	// regular collection pass, exactly as the paper does (§V-A.1).
	profile, _ := dps.ProfileFor(dps.Cloudflare)
	disc := rrscan.NewNameserverDiscovery(profile)
	collector.CollectStream(w.Day(), disc.AddRecord)
	nsHosts, nsAddrs := disc.Resolve(resolver)
	fmt.Printf("discovered %d cloudflare NS-rerouting nameservers, e.g. %s\n", len(nsHosts), nsHosts[0])

	// Step 1: direct scan of every domain from five vantage points.
	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	scanner := rrscan.NewScanner(vantage)
	scanned := scanner.ScanDirect(nsAddrs, domains)
	fmt.Printf("direct scan: %d/%d domains answered by cloudflare nameservers\n", len(scanned), len(domains))

	// Steps 2-4: the Fig. 8 pipeline.
	resolver.PurgeCache()
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	pipeline := filter.New(matcher, resolver, verifier)
	rep := pipeline.Run(dps.Cloudflare, scanned)

	fmt.Printf("IP-matching filter: dropped %d answers inside cloudflare ranges\n", rep.DroppedByIPFilter)
	fmt.Printf("A-matching filter:  %d hidden records (A_diff = A_IP - A_nor)\n", len(rep.Hidden))
	verified := rep.VerifiedOrigins()
	fmt.Printf("HTML verification:  %d verified exposed origins\n\n", len(verified))

	for _, o := range rep.Outcomes {
		mark := " "
		if o.Verified {
			mark = "*"
		}
		site, _ := w.Site(o.Apex)
		truth := "stale"
		if site != nil && site.OriginAddr() == o.Addr {
			truth = "LIVE ORIGIN"
		}
		fmt.Printf("  %s %-28s hidden=%v (%s)\n", mark, o.WWW, o.Addr, truth)
	}
	fmt.Println("\n(*) = passed HTML verification; LIVE ORIGIN = matches ground truth")
}
