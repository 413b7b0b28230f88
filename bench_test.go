// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md §4 for the index). Each benchmark drives the
// code path that regenerates the artifact and reports the headline numbers
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction run. The cmd/ binaries print the full tables.
package rrdps_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rrdps/internal/alexa"
	"rrdps/internal/attack"
	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/filter"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/report"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/edge"
	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// ---------------------------------------------------------------------------
// Shared fixtures (built once; benchmarks must not mutate them).

var (
	benchWorldOnce sync.Once
	benchWorld     *world.World
	benchMatcher   *match.Matcher
	benchDomains   []alexa.Domain
)

// sharedWorld returns a 1200-site world with brisk churn, aged 28 days.
func sharedWorld() (*world.World, *match.Matcher, []alexa.Domain) {
	benchWorldOnce.Do(func() {
		cfg := world.PaperConfig(1200)
		cfg.Seed = 2018
		cfg.LeaveRate *= 10
		cfg.SwitchRate *= 10
		cfg.JoinRate *= 10
		benchWorld = world.New(cfg)
		benchWorld.AdvanceDays(28)
		benchMatcher = match.New(benchWorld.Registry, dps.Profiles())
		for _, s := range benchWorld.Sites() {
			benchDomains = append(benchDomains, s.Domain())
		}
	})
	return benchWorld, benchMatcher, benchDomains
}

var (
	dynResultOnce sync.Once
	dynResult     experiment.DynamicsResult
)

// dynamicsResult runs one 14-day §IV campaign (Figs. 2/3/5/6, Table V).
func dynamicsResult() experiment.DynamicsResult {
	dynResultOnce.Do(func() {
		cfg := world.PaperConfig(800)
		cfg.Seed = 2019
		cfg.JoinRate = 0.01
		cfg.LeaveRate = 0.02
		cfg.PauseRate = 0.05
		cfg.SwitchRate = 0.01
		dynResult = experiment.Dynamics{World: world.New(cfg), Days: 14}.Run()
	})
	return dynResult
}

var (
	resResultOnce sync.Once
	resResult     experiment.ResidualResult
)

// residualResult runs one 4-week §V campaign (Table VI, Fig. 9).
func residualResult() experiment.ResidualResult {
	resResultOnce.Do(func() {
		cfg := world.PaperConfig(1500)
		cfg.Seed = 2020
		cfg.LeaveRate *= 12
		cfg.SwitchRate *= 12
		cfg.JoinRate *= 12
		resResult = experiment.Residual{
			World: world.New(cfg), Weeks: 4, WarmupDays: 28,
		}.Run()
	})
	return resResult
}

// ---------------------------------------------------------------------------
// Table II — provider profiles and matching.

func BenchmarkTable2ProviderMatching(b *testing.B) {
	_, matcher, _ := sharedWorld()
	cnames := []dnsmsg.Name{
		"a1b2c3.x.incapdns.net",
		"site7.edgekey.akam.net",
		"d99.cloudfront.net",
		"www.unrelated-site.com",
	}
	nsHosts := []dnsmsg.Name{
		"kate.ns.cloudflare.com",
		"ns1.cdnetdns.cdngc.net",
		"ns1.webhost.net",
	}
	addr := netip.MustParseAddr("20.0.32.7")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cnames {
			matcher.MatchCNAME(c)
		}
		for _, h := range nsHosts {
			matcher.MatchNS(h)
		}
		matcher.MatchA(addr)
	}
	b.ReportMetric(float64(len(dps.Profiles())), "providers")
}

// ---------------------------------------------------------------------------
// Table III — DPS status classification.

func BenchmarkTable3StatusClassification(b *testing.B) {
	w, matcher, domains := sharedWorld()
	resolver := w.NewResolver(netsim.RegionOregon)
	store := collectDay(collect.New(resolver, domains[:400]), w.Day())
	classifier := status.New(matcher)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = classifier.ClassifyStream(store.Cursor(w.Day()), func(dnsmsg.Name, collect.Record, status.Adoption) {})
		if n == 0 {
			b.Fatal("no classifications")
		}
	}
	b.ReportMetric(float64(n), "domains/op")
}

// collectDay streams one collection pass into a new snapshot store.
func collectDay(c *collect.Collector, day int) *snapstore.Store {
	store := snapstore.New()
	dw := store.BeginDay(day)
	c.CollectStream(day, dw.Put)
	dw.Seal()
	return store
}

// ---------------------------------------------------------------------------
// Fig. 2 — adoption breakdown (collection + classification cycle).

func BenchmarkFigure2AdoptionBreakdown(b *testing.B) {
	w, matcher, domains := sharedWorld()
	resolver := w.NewResolver(netsim.RegionLondon)
	collector := collect.New(resolver, domains[:300])
	classifier := status.New(matcher)
	b.ReportAllocs()
	b.ResetTimer()
	adopters := 0
	for i := 0; i < b.N; i++ {
		store := collectDay(collector, w.Day())
		adopters = 0
		classifier.ClassifyStream(store.Cursor(w.Day()), func(_ dnsmsg.Name, _ collect.Record, a status.Adoption) {
			if a.Status != status.StatusNone {
				adopters++
			}
		})
	}
	b.ReportMetric(float64(adopters), "adopters")
	b.ReportMetric(100*float64(adopters)/300, "adoption_pct")
}

// ---------------------------------------------------------------------------
// Fig. 3 / Table IV — daily behaviour detection.

func BenchmarkFigure3DailyBehaviors(b *testing.B) {
	res := dynamicsResult()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := report.Figure3(res); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(res.AvgPerDay(behavior.Join), "joins/day")
	b.ReportMetric(res.AvgPerDay(behavior.Leave), "leaves/day")
	b.ReportMetric(res.AvgPerDay(behavior.Pause), "pauses/day")
	b.ReportMetric(res.AvgPerDay(behavior.Resume), "resumes/day")
	b.ReportMetric(res.AvgPerDay(behavior.Switch), "switches/day")
}

// ---------------------------------------------------------------------------
// Fig. 4 — the usage FSM itself (pure transition throughput).

func BenchmarkFigure4FSMTransitions(b *testing.B) {
	states := []status.Adoption{
		{Status: status.StatusNone},
		{Status: status.StatusOn, Provider: dps.Cloudflare},
		{Status: status.StatusOff, Provider: dps.Cloudflare},
		{Status: status.StatusOn, Provider: dps.Incapsula},
	}
	rng := rand.New(rand.NewSource(4))
	const domains = 256
	seq := make([][]status.Adoption, domains)
	for d := range seq {
		seq[d] = []status.Adoption{states[rng.Intn(len(states))], states[rng.Intn(len(states))]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker := behavior.NewTracker(nil)
		for day := 0; day < 2; day++ {
			obs := make(map[dnsmsg.Name]status.Adoption, domains)
			for d := 0; d < domains; d++ {
				obs[dnsmsg.Name(benchDomainName(d))] = seq[d][day]
			}
			tracker.Observe(day, obs)
		}
	}
	b.ReportMetric(domains, "domains/op")
}

func benchDomainName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "site-" + string(letters[i%26]) + string(letters[(i/26)%26]) + ".com"
}

// ---------------------------------------------------------------------------
// Fig. 5 — pause-period CDF.

func BenchmarkFigure5PauseCDF(b *testing.B) {
	res := dynamicsResult()
	b.ReportAllocs()
	b.ResetTimer()
	var over5 float64
	for i := 0; i < b.N; i++ {
		overall, _, _ := report.PauseCDF(res)
		over5 = 1 - overall.At(5)
	}
	b.ReportMetric(float64(len(res.PauseWindows)), "windows")
	b.ReportMetric(over5*100, "over5days_pct")
}

// ---------------------------------------------------------------------------
// Table V — origin-IP unchanged rate (HTML verification).

func BenchmarkTable5UnchangedRate(b *testing.B) {
	res := dynamicsResult()
	jr, un, rate := res.TotalUnchangedRate()
	w, _, _ := sharedWorld()
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	var site = w.Sites()[0]
	addr := site.OriginAddr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifier.Verify(site.WWW(), addr, addr)
	}
	b.ReportMetric(float64(jr), "join_resume")
	b.ReportMetric(float64(un), "unchanged")
	b.ReportMetric(rate*100, "unchanged_pct")
}

// ---------------------------------------------------------------------------
// Fig. 6 — Cloudflare rerouting breakdown.

func BenchmarkFigure6CloudflareBreakdown(b *testing.B) {
	res := dynamicsResult()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := report.Figure6(res); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
	ns, cname := 0, 0
	for _, bd := range res.Breakdowns {
		ns += bd.CloudflareNS
		cname += bd.CloudflareCNAME
	}
	if ns+cname > 0 {
		b.ReportMetric(100*float64(ns)/float64(ns+cname), "ns_pct")
	}
}

// ---------------------------------------------------------------------------
// Fig. 7 — anycast vantage spread.

func BenchmarkFigure7VantageSpread(b *testing.B) {
	w, _, _ := sharedWorld()
	cf, _ := w.Provider(dps.Cloudflare)
	pool := cf.NSPool()
	addr, _ := cf.NSPoolAddr(pool[len(pool)-1])
	clients := make([]*dnsresolver.Client, 0, 5)
	for i, region := range netsim.VantageRegions() {
		clients = append(clients, dnsresolver.NewClient(
			w.Net, w.Alloc.NextAddr(), region, rand.New(rand.NewSource(int64(i)))))
	}
	var target dnsmsg.Name
	for _, c := range cf.Customers() {
		if c.Method == dps.ReroutingNS && c.State == dps.StateActive {
			target = c.Apex.Child("www")
			break
		}
	}
	if target == "" {
		b.Skip("no active cloudflare NS customer")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clients[i%len(clients)].Exchange(addr, target, dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	counts := w.Net.QueryCounts(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS})
	b.ReportMetric(float64(len(counts)), "pops_hit")
}

// ---------------------------------------------------------------------------
// Fig. 8 — the filtering pipeline.

func BenchmarkFigure8FilterPipeline(b *testing.B) {
	w, matcher, domains := sharedWorld()
	resolver := w.NewResolver(netsim.RegionOregon)
	profile, _ := dps.ProfileFor(dps.Cloudflare)
	discovery := rrscan.NewNameserverDiscovery(profile)
	collect.New(resolver, domains).CollectStream(w.Day(), discovery.AddRecord)
	_, nsAddrs := discovery.Resolve(resolver)
	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	scanned := rrscan.NewScanner(vantage).ScanDirect(nsAddrs, domains)
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	pipeline := filter.New(matcher, resolver, verifier)

	b.ResetTimer()
	var rep filter.Report
	for i := 0; i < b.N; i++ {
		rep = pipeline.Run(dps.Cloudflare, scanned)
	}
	b.ReportMetric(float64(rep.Scanned), "scanned")
	b.ReportMetric(float64(len(rep.Hidden)), "hidden")
	b.ReportMetric(float64(len(rep.VerifiedOrigins())), "verified")
}

// ---------------------------------------------------------------------------
// Table VI — residual resolution in the wild.

func BenchmarkTable6ResidualResolution(b *testing.B) {
	res := residualResult()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := report.TableVI(res); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
	ch, ih := res.TotalHidden()
	cv, iv := res.TotalVerified()
	b.ReportMetric(float64(ch), "cf_hidden")
	b.ReportMetric(float64(cv), "cf_verified")
	b.ReportMetric(float64(ih), "inc_hidden")
	b.ReportMetric(float64(iv), "inc_verified")
}

// ---------------------------------------------------------------------------
// Fig. 9 — exposure timeline.

func BenchmarkFigure9ExposureTimeline(b *testing.B) {
	res := residualResult()
	b.ReportAllocs()
	b.ResetTimer()
	var always, appeared int
	for i := 0; i < b.N; i++ {
		tl := res.CFExposure.Timeline()
		always, appeared = tl.AlwaysExposed, tl.AppearedAndDisappeared
	}
	b.ReportMetric(float64(always), "always_exposed")
	b.ReportMetric(float64(appeared), "appear_disappear")
}

// ---------------------------------------------------------------------------
// Scan-path parallelism — serial vs worker-pool throughput on the §V hot
// paths. `go test -bench=BenchmarkScan -benchmem` compares the variants;
// the parallel results are value-identical to serial (see the
// ParallelMatchesSerial tests).

// scanFixture builds the direct-scan inputs once against the shared world.
var (
	scanFixOnce sync.Once
	scanNSAddrs []netip.Addr
	scanVantage []*dnsresolver.Client
	scanLib     *rrscan.CNAMELibrary
	scanScanned map[dnsmsg.Name][]netip.Addr
	scanRes     *dnsresolver.Resolver
)

func scanFixture() {
	scanFixOnce.Do(func() {
		w, matcher, domains := sharedWorld()
		scanRes = w.NewResolver(netsim.RegionOregon)
		collector := collect.New(scanRes, domains)
		collector.SetWorkers(8)
		profile, _ := dps.ProfileFor(dps.Cloudflare)
		discovery := rrscan.NewNameserverDiscovery(profile)
		scanLib = rrscan.NewCNAMELibrary(dps.Incapsula, matcher)
		collector.CollectStream(w.Day(), func(rec collect.Record) {
			discovery.AddRecord(rec)
			scanLib.AddRecord(rec.Domain.Apex, rec)
		})
		_, scanNSAddrs = discovery.Resolve(scanRes)
		for _, region := range netsim.VantageRegions() {
			scanVantage = append(scanVantage, w.NewResolver(region).Client())
		}
		scanScanned = rrscan.NewScanner(scanVantage).ScanDirect(scanNSAddrs, domains)
	})
}

// BenchmarkScanDirect measures one full direct scan of every domain per
// op, at increasing worker counts.
func BenchmarkScanDirect(b *testing.B) {
	scanFixture()
	_, _, domains := sharedWorld()
	if len(scanNSAddrs) == 0 {
		b.Fatal("no nameservers discovered")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scanner := rrscan.NewScanner(scanVantage)
			scanner.SetWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			var got int
			for i := 0; i < b.N; i++ {
				got = len(scanner.ScanDirect(scanNSAddrs, domains))
			}
			b.ReportMetric(float64(len(domains)), "domains/op")
			b.ReportMetric(float64(got), "answered")
		})
	}
}

// BenchmarkScanResolveAll measures the Incapsula CNAME re-resolution pass.
func BenchmarkScanResolveAll(b *testing.B) {
	scanFixture()
	if scanLib.Size() == 0 {
		b.Skip("no incapsula CNAMEs collected")
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scanLib.SetWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanRes.PurgeCache()
				if got := scanLib.ResolveAll(scanRes); len(got) == 0 {
					b.Fatal("empty re-resolution")
				}
			}
			b.ReportMetric(float64(scanLib.Size()), "apexes/op")
		})
	}
}

// BenchmarkScanFilterPipeline measures the Fig. 8 filter pass over one
// scan's answers.
func BenchmarkScanFilterPipeline(b *testing.B) {
	scanFixture()
	w, matcher, _ := sharedWorld()
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pipeline := filter.New(matcher, scanRes, verifier)
			pipeline.SetWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			var rep filter.Report
			for i := 0; i < b.N; i++ {
				scanRes.PurgeCache()
				rep = pipeline.Run(dps.Cloudflare, scanScanned)
			}
			b.ReportMetric(float64(rep.Scanned), "scanned")
			b.ReportMetric(float64(len(rep.Hidden)), "hidden")
		})
	}
}

// ---------------------------------------------------------------------------
// Fig. 1 — attack absorbed vs bypassed.

func BenchmarkFigure1AttackBypass(b *testing.B) {
	b.ReportAllocs()
	var protAvail, bypassAvail float64
	for i := 0; i < b.N; i++ {
		protAvail, bypassAvail = runAttackPair(int64(i))
	}
	b.ReportMetric(protAvail*100, "protected_avail_pct")
	b.ReportMetric(bypassAvail*100, "bypass_avail_pct")
}

// runAttackPair runs one protected and one bypass flood on a fresh mini
// scenario, returning the availabilities.
func runAttackPair(seed int64) (protected, bypass float64) {
	clock := simtime.NewSimulated()
	net := netsim.New(netsim.Config{Clock: clock})
	scrubber := attack.NewRateScrubber(2)
	originAddr := netip.MustParseAddr("198.18.0.10")
	origin := httpsim.NewOrigin(httpsim.OriginConfig{Page: httpsim.Page{Title: "V"}})
	guard := attack.NewCapacityGuard(origin, 30)
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, guard)

	edgeAddr := netip.MustParseAddr("104.16.0.10")
	e := edge.New(edge.Config{
		Network:  net,
		Addr:     edgeAddr,
		Region:   netsim.RegionOregon,
		Clock:    clock,
		CacheTTL: time.Minute,
		Scrubber: scrubber,
	})
	e.SetBackend("www.v.com", originAddr)
	net.Register(netsim.Endpoint{Addr: edgeAddr, Port: netsim.PortHTTP}, netsim.RegionOregon, e)

	allocBase := netip.MustParseAddr("60.0.0.0")
	next := allocBase
	alloc := func() netip.Addr {
		a := next
		next = next.Next()
		return a
	}
	botnet := attack.NewBotnet(30, alloc, rand.New(rand.NewSource(seed)))
	legit := httpsim.NewClient(net, alloc(), netsim.RegionLondon)
	scenario := attack.Scenario{
		Network:        net,
		TargetHost:     "www.v.com",
		Botnet:         botnet,
		RequestsPerBot: 5,
		Ticks:          3,
		LegitClient:    legit,
		LegitAddr:      edgeAddr,
		Tickers:        []interface{ Tick() }{scrubber, guard},
	}
	scenario.TargetAddr = edgeAddr
	p := scenario.Run()
	clock.Advance(10 * time.Minute)
	scenario.TargetAddr = originAddr
	bp := scenario.Run()
	return p.Availability(), bp.Availability()
}
