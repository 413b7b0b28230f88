package experiment

import (
	"fmt"

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
// materialized every collection round as a full collect.Snapshot and fed
// the maps to their consumers. Production code now runs only the
// streaming engine; this file keeps the original pipeline as the
// reference the streaming≡legacy suites compare against. It runs on the
// same setup() wiring as the engine, so the two differ only in how a
// round's records reach the classifier, tracker, verifier and scanners.

// legacyDynamics runs d over the map-based pipeline: each day
// materializes a full collect.Snapshot, and the previous day's map is
// retained for the Table V lookups.
func legacyDynamics(d Dynamics) DynamicsResult {
	e := d.setup()
	res := DynamicsResult{Days: d.Days, Unchanged: make(map[dps.ProviderKey]*UnchangedRow)}
	var tracker *behavior.Tracker // built after the first snapshot (multi-CDN detection)
	var prevSnap collect.Snapshot

	for day := 0; day < d.Days; day++ {
		daySpan := d.Obs.Tracer().StartSpan("day", fmt.Sprintf("day %d", day))
		daySpan.SetItems(len(e.domains))
		snap := e.collector.Collect(day)
		classified := e.classifier.ClassifySnapshot(snap)

		if tracker == nil {
			var excluded []dnsmsg.Name
			if !d.KeepMultiCDN {
				excluded = detectMultiCDN(snap)
			}
			tracker = behavior.NewTracker(excluded)
		}
		res.Breakdowns = append(res.Breakdowns, breakdown(day, snap, classified, e.topCut))

		detections := tracker.Observe(day, validAdoptions(snap, classified))
		// Table V: verify origin-IP hygiene for JOIN and RESUME (§IV-C.3
		// explicitly excludes SWITCH).
		for _, det := range detections {
			if det.Kind != behavior.Join && det.Kind != behavior.Resume {
				continue
			}
			if prevSnap.Records == nil {
				continue // day 0: no previous snapshot yet
			}
			pr := snapstore.Pair{Apex: det.Apex}
			pr.Prev, pr.PrevOK = prevSnap.Records[det.Apex]
			pr.Cur, pr.CurOK = snap.Records[det.Apex]
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
func detectMultiCDN(snap collect.Snapshot) []dnsmsg.Name {
	var out []dnsmsg.Name
	for apex, rec := range snap.Records {
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
func validAdoptions(snap collect.Snapshot, classified map[dnsmsg.Name]status.Adoption) map[dnsmsg.Name]status.Adoption {
	out := make(map[dnsmsg.Name]status.Adoption, len(classified))
	for apex, adoption := range classified {
		rec := snap.Records[apex]
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

func breakdown(day int, snap collect.Snapshot, classified map[dnsmsg.Name]status.Adoption, topCut int) AdoptionBreakdown {
	b := AdoptionBreakdown{Day: day, ByProvider: make(map[dps.ProviderKey]int)}
	for apex, adoption := range classified {
		b.accum(snap.Records[apex], adoption, topCut)
	}
	return b
}

// legacyResidual runs r over the map-based pipeline: each collection
// round materializes a full collect.Snapshot for its consumers.
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
		e.cnameLib.AddSnapshot(e.collector.Collect(w.Day()))
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
		snap := e.collector.Collect(w.Day())
		e.cnameLib.AddSnapshot(snap)

		nsHosts, nsAddrs := rrscan.DiscoverNameservers([]collect.Snapshot{snap}, e.cfProfile, e.resolver)
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
