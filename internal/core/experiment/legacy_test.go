package experiment

import (
	"fmt"
	"net/netip"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
)

// The map-based reference pipeline. Before the snapstore, both campaigns
// materialized every collection round as a full map of records keyed by
// apex and fed the maps to their consumers. Production code now runs only
// the streaming engine and exports no map-based read API; this file keeps
// the original pipeline, including its private map type and the map
// loops for classification, nameserver discovery and the CNAME library,
// as the reference the streaming≡legacy suites compare against. It runs
// on the same setup() wiring as the engine, so the two differ only in how
// a round's records reach the classifier, tracker, verifier and scanners.

// legacySnapshot is one day's collected records as a full map keyed by
// apex.
type legacySnapshot map[dnsmsg.Name]collect.Record

// collectLegacy runs one collection pass — the same CollectStream pass
// the engine runs — and materializes it as a map sized for n domains.
func collectLegacy(c *collect.Collector, day, n int) legacySnapshot {
	snap := make(legacySnapshot, n)
	c.CollectStream(day, func(rec collect.Record) { snap[rec.Domain.Apex] = rec })
	return snap
}

// classifyLegacy classifies every record in a snapshot, keyed by apex.
func classifyLegacy(c *status.Classifier, snap legacySnapshot) map[dnsmsg.Name]status.Adoption {
	out := make(map[dnsmsg.Name]status.Adoption, len(snap))
	for apex, rec := range snap {
		out[apex] = c.Classify(rec)
	}
	return out
}

// addLegacySnapshot records every provider-attributed CNAME target in the
// snapshot into lib.
func addLegacySnapshot(lib *rrscan.CNAMELibrary, snap legacySnapshot) {
	for apex, rec := range snap {
		lib.AddRecord(apex, rec)
	}
}

// discoverLegacy extracts the provider's NS-hosting nameservers from a
// snapshot and resolves each to an address.
func discoverLegacy(snap legacySnapshot, profile dps.Profile, resolver *dnsresolver.Resolver) ([]dnsmsg.Name, []netip.Addr) {
	d := rrscan.NewNameserverDiscovery(profile)
	for _, rec := range snap {
		d.AddRecord(rec)
	}
	return d.Resolve(resolver)
}

// legacyDynamics runs d over the map-based pipeline: each day
// materializes a full legacySnapshot, and the previous day's map is
// retained for the Table V lookups.
func legacyDynamics(d Dynamics) DynamicsResult {
	e := d.setup()
	res := DynamicsResult{Days: d.Days, Unchanged: make(map[dps.ProviderKey]*UnchangedRow)}
	var tracker *behavior.Tracker // built after the first snapshot (multi-CDN detection)
	var prevSnap legacySnapshot

	for day := 0; day < d.Days; day++ {
		daySpan := d.Obs.Tracer().StartSpan("day", fmt.Sprintf("day %d", day))
		daySpan.SetItems(len(e.domains))
		snap := collectLegacy(e.collector, day, len(e.domains))
		classified := classifyLegacy(e.classifier, snap)

		if tracker == nil {
			tracker = behavior.NewTracker(detectMultiCDN(snap))
		}
		res.Breakdowns = append(res.Breakdowns, breakdown(day, snap, classified, e.topCut))

		detections := tracker.Observe(day, validAdoptions(snap, classified))
		// Table V: verify origin-IP hygiene for JOIN and RESUME (§IV-C.3
		// explicitly excludes SWITCH).
		for _, det := range detections {
			if det.Kind != behavior.Join && det.Kind != behavior.Resume {
				continue
			}
			if prevSnap == nil {
				continue // day 0: no previous snapshot yet
			}
			pr := snapstore.Pair{Apex: det.Apex}
			pr.Prev, pr.PrevOK = prevSnap[det.Apex]
			pr.Cur, pr.CurOK = snap[det.Apex]
			d.verifyDetection(&res, e.verifier, pr, det)
		}

		prevSnap = snap
		d.advance(e.w)
		daySpan.End()
	}

	d.finish(&res, e, tracker, dnsresolver.QueryStats{})
	return res
}

// detectMultiCDN returns the apexes whose CNAME chains run through a
// multi-CDN front-end in the given snapshot.
func detectMultiCDN(snap legacySnapshot) []dnsmsg.Name {
	var out []dnsmsg.Name
	for apex, rec := range snap {
		for _, target := range rec.CNAMEs {
			for _, sub := range _multiCDNSubstrings {
				if target.ContainsSubstring(sub) {
					out = append(out, apex)
				}
			}
		}
	}
	return out
}

// validAdoptions drops records whose resolution failed — in full OR in
// part — so transient failures cannot read as behaviours (a lost A answer
// would demote ON to NONE and fabricate a LEAVE; a lost NS answer would
// demote OFF to NONE), and skips footnote-6 shared-IP suspects.
func validAdoptions(snap legacySnapshot, classified map[dnsmsg.Name]status.Adoption) map[dnsmsg.Name]status.Adoption {
	out := make(map[dnsmsg.Name]status.Adoption, len(classified))
	for apex, adoption := range classified {
		rec := snap[apex]
		if !rec.ResolveOK || !rec.NSOK {
			continue
		}
		if adoption.SharedIPSuspect {
			continue
		}
		out[apex] = adoption
	}
	return out
}

func breakdown(day int, snap legacySnapshot, classified map[dnsmsg.Name]status.Adoption, topCut int) AdoptionBreakdown {
	b := AdoptionBreakdown{Day: day, ByProvider: make(map[dps.ProviderKey]int)}
	for apex, adoption := range classified {
		b.accum(snap[apex], adoption, topCut)
	}
	return b
}

// legacyResidual runs r over the map-based pipeline: each collection
// round materializes a full legacySnapshot for its consumers.
func legacyResidual(r Residual) ResidualResult {
	e := r.setup()
	w := e.w
	res := ResidualResult{
		Weeks:       r.Weeks,
		CFExposure:  exposure.NewTracker(),
		IncExposure: exposure.NewTracker(),
	}

	// Warm-up: age the world so the first scan already sees residue, and
	// feed the CNAME library weekly along the way.
	var warmupSpan *obs.Span
	if r.WarmupDays > 0 {
		warmupSpan = r.Obs.Tracer().StartSpan("warmup", fmt.Sprintf("%d days", r.WarmupDays))
	}
	for remaining := r.WarmupDays; remaining > 0; {
		addLegacySnapshot(e.cnameLib, collectLegacy(e.collector, w.Day(), len(e.domains)))
		warmupSpan.AddItems(len(e.domains))
		step := 7
		if remaining < step {
			step = remaining
		}
		w.AdvanceDays(step)
		remaining -= step
	}
	warmupSpan.End()

	for week := 1; week <= r.Weeks; week++ {
		weekSpan := r.Obs.Tracer().StartSpan("week", fmt.Sprintf("week %d", week))
		weekSpan.SetItems(len(e.domains))
		r.audit(e)
		// Collect a fresh snapshot at the start of the week; it feeds
		// nameserver discovery and the Incapsula CNAME library.
		snap := collectLegacy(e.collector, w.Day(), len(e.domains))
		addLegacySnapshot(e.cnameLib, snap)

		nsHosts, nsAddrs := discoverLegacy(snap, e.cfProfile, e.resolver)
		res.NameserverCount = max(res.NameserverCount, len(nsHosts))

		r.floodWeek(e, week, nsAddrs)
		r.scanWeek(&res, e, week, nsAddrs)

		// A week of usage dynamics between scans.
		w.AdvanceDays(7)
		weekSpan.End()
	}

	r.finish(&res, e, dnsresolver.QueryStats{})
	return res
}
