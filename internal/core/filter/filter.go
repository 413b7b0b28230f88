// Package filter implements the Fig. 8 filtering procedure that turns raw
// scan answers into verified origin exposures:
//
//	scan answers ──IP-matching filter──▶ A_IP
//	A_IP ──A-matching filter (vs normal resolution A_nor)──▶ hidden records
//	hidden records ──HTML verification filter──▶ verified origins
package filter

import (
	"fmt"
	"net/netip"
	"sort"

	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/obs"
	"rrdps/internal/workpool"
)

// Hidden is one hidden record: an address only retrievable from the DPS
// nameservers, invisible to normal resolution.
type Hidden struct {
	Apex dnsmsg.Name
	WWW  dnsmsg.Name
	Addr netip.Addr
}

// Outcome is a hidden record with its verification verdict.
type Outcome struct {
	Hidden
	// Verified is true when HTML verification confirmed the hidden
	// address serves the same site as the public view — an exposed
	// origin.
	Verified bool
}

// Report summarizes one filtering pass.
type Report struct {
	Provider dps.ProviderKey
	// Scanned is how many domains had scan answers at all.
	Scanned int
	// DroppedByIPFilter counts answers discarded because they point into
	// the provider's own ranges (protection currently ON there).
	DroppedByIPFilter int
	// Hidden are the hidden records (the A_diff set).
	Hidden []Hidden
	// Outcomes annotate each hidden record with its verification verdict.
	Outcomes []Outcome
}

// VerifiedOrigins returns the outcomes confirmed as origin exposures.
func (r Report) VerifiedOrigins() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Verified {
			out = append(out, o)
		}
	}
	return out
}

// HiddenApexes returns the distinct apexes with hidden records.
func (r Report) HiddenApexes() []dnsmsg.Name {
	seen := make(map[dnsmsg.Name]bool)
	var out []dnsmsg.Name
	for _, h := range r.Hidden {
		if !seen[h.Apex] {
			seen[h.Apex] = true
			out = append(out, h.Apex)
		}
	}
	return out
}

// VerifiedApexes returns the distinct apexes with verified exposures.
func (r Report) VerifiedApexes() []dnsmsg.Name {
	seen := make(map[dnsmsg.Name]bool)
	var out []dnsmsg.Name
	for _, o := range r.Outcomes {
		if o.Verified && !seen[o.Apex] {
			seen[o.Apex] = true
			out = append(out, o.Apex)
		}
	}
	return out
}

// Pipeline runs the three filters.
type Pipeline struct {
	matcher  *match.Matcher
	resolver *dnsresolver.Resolver
	verifier *htmlverify.Verifier
	workers  int
	obs      *obs.Registry
}

// New creates a pipeline. resolver performs the "normal resolutions" of
// the A-matching filter; verifier performs HTML verification.
func New(matcher *match.Matcher, resolver *dnsresolver.Resolver, verifier *htmlverify.Verifier) *Pipeline {
	if matcher == nil || resolver == nil || verifier == nil {
		panic("filter: matcher, resolver, and verifier are required")
	}
	return &Pipeline{matcher: matcher, resolver: resolver, verifier: verifier, workers: 1}
}

// SetWorkers sets the per-apex filtering parallelism (default 1). Each
// apex's three stages run as one unit on one worker; the report is
// assembled from per-apex results in sorted apex order after fan-in, so
// Run's output is value-identical to a serial pass.
func (p *Pipeline) SetWorkers(n int) {
	if n < 1 {
		panic(fmt.Sprintf("filter: SetWorkers(%d)", n))
	}
	p.workers = n
}

// SetObserver installs a metrics registry on the pipeline and forwards it
// to the verifier, so one call wires the whole Fig. 8 chain. The filter.*
// counters are derived from the assembled report, hence deterministic;
// nil uninstalls.
func (p *Pipeline) SetObserver(r *obs.Registry) {
	p.obs = r
	p.verifier.SetObserver(r)
	r.DeclareCounters("filter.runs", "filter.scanned", "filter.dropped_ip", "filter.hidden", "filter.verified")
	r.DeclareHistograms("filter.hidden_per_apex")
}

// apexResult is one apex's contribution to the report.
type apexResult struct {
	dropped  int
	hidden   []Hidden
	outcomes []Outcome
}

// Run filters one provider's scan answers (apex -> addresses retrieved
// from the provider's nameservers). With SetWorkers > 1 the apexes fan out
// over a bounded worker pool — the A-matching re-resolutions and HTML
// verifications dominate the cost — and the report keeps the deterministic
// sorted-apex ordering.
func (p *Pipeline) Run(provider dps.ProviderKey, scanned map[dnsmsg.Name][]netip.Addr) Report {
	span := p.obs.Tracer().StartSpan("filter", string(provider))
	span.SetItems(len(scanned))
	defer span.End()
	p.resolver.Checkpoint()
	rep := Report{Provider: provider, Scanned: len(scanned)}

	apexes := make([]dnsmsg.Name, 0, len(scanned))
	for apex := range scanned {
		apexes = append(apexes, apex)
	}
	sort.Slice(apexes, func(i, j int) bool { return apexes[i] < apexes[j] })

	results := make([]apexResult, len(apexes))
	workpool.Run(p.workers, len(apexes), func(i int) {
		results[i] = p.runApex(provider, apexes[i], scanned[apexes[i]])
	})

	// Fan-in: stable sorted-apex order, exactly like the serial loop.
	for _, r := range results {
		rep.DroppedByIPFilter += r.dropped
		rep.Hidden = append(rep.Hidden, r.hidden...)
		rep.Outcomes = append(rep.Outcomes, r.outcomes...)
	}
	p.countReport(results, rep)
	return rep
}

// countReport accounts one pass from the assembled report — single
// goroutine, order-independent values, so filter.* stays deterministic.
func (p *Pipeline) countReport(results []apexResult, rep Report) {
	if p.obs == nil {
		return
	}
	p.obs.Counter("filter.runs").Inc()
	p.obs.Counter("filter.scanned").Add(uint64(rep.Scanned))
	p.obs.Counter("filter.dropped_ip").Add(uint64(rep.DroppedByIPFilter))
	p.obs.Counter("filter.hidden").Add(uint64(len(rep.Hidden)))
	p.obs.Counter("filter.verified").Add(uint64(len(rep.VerifiedOrigins())))
	hist := p.obs.Histogram("filter.hidden_per_apex")
	for _, r := range results {
		if len(r.hidden) > 0 {
			hist.Observe(uint64(len(r.hidden)))
		}
	}
}

// runApex runs the three Fig. 8 stages for one apex.
func (p *Pipeline) runApex(provider dps.ProviderKey, apex dnsmsg.Name, answers []netip.Addr) apexResult {
	var r apexResult
	www := apex.Child("www")

	// Stage 1 — IP-matching filter: answers inside the provider's own
	// ranges mean the site is under this provider's protection right
	// now; no residual resolution there.
	var aIP []netip.Addr
	for _, addr := range answers {
		if p.matcher.InProviderRanges(provider, addr) {
			r.dropped++
			continue
		}
		aIP = append(aIP, addr)
	}
	if len(aIP) == 0 {
		return r
	}

	// Stage 2 — A-matching filter: compare against the normal
	// resolution A_nor; what only the DPS nameservers return is
	// hidden: A_diff = A_IP − A_nor.
	aNor, err := p.resolver.Resolve(www, dnsmsg.TypeA)
	norSet := make(map[netip.Addr]bool)
	var publicAddr netip.Addr
	if err == nil {
		for _, a := range aNor.Addrs() {
			norSet[a] = true
			if !publicAddr.IsValid() {
				publicAddr = a
			}
		}
	}
	for _, addr := range aIP {
		if norSet[addr] {
			continue
		}
		r.hidden = append(r.hidden, Hidden{Apex: apex, WWW: www, Addr: addr})
	}
	if len(r.hidden) == 0 {
		return r
	}

	// Stage 3 — HTML verification filter: fetch via the public view
	// (IP2) and via each hidden address (IP1) and compare pages. With
	// no public address the record stays unverified (lower bound).
	r.outcomes = make([]Outcome, len(r.hidden))
	if publicAddr.IsValid() {
		cands := make([]netip.Addr, len(r.hidden))
		for i, h := range r.hidden {
			cands[i] = h.Addr
		}
		verdicts := p.verifier.VerifyBatch(www, publicAddr, cands, p.workers)
		for i, h := range r.hidden {
			r.outcomes[i] = Outcome{Hidden: h, Verified: verdicts[i].Match}
		}
	} else {
		for i, h := range r.hidden {
			r.outcomes[i] = Outcome{Hidden: h}
		}
	}
	return r
}
