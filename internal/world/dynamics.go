package world

import (
	"fmt"
	"sort"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/website"
)

// BehaviorKind is one of the Table IV usage behaviours, recorded as ground
// truth so the measurement pipeline can be validated against what really
// happened.
type BehaviorKind int

// Usage behaviours (Table IV).
const (
	BehaviorJoin BehaviorKind = iota + 1
	BehaviorLeave
	BehaviorPause
	BehaviorResume
	BehaviorSwitch
	// BehaviorIPChange is the §IV-C best-practice origin change; not a
	// Table IV behaviour but ground truth the Table V experiment needs.
	BehaviorIPChange
)

// String implements fmt.Stringer.
func (k BehaviorKind) String() string {
	switch k {
	case BehaviorJoin:
		return "JOIN"
	case BehaviorLeave:
		return "LEAVE"
	case BehaviorPause:
		return "PAUSE"
	case BehaviorResume:
		return "RESUME"
	case BehaviorSwitch:
		return "SWITCH"
	case BehaviorIPChange:
		return "IPCHANGE"
	default:
		return fmt.Sprintf("BEHAVIOR%d", int(k))
	}
}

// Event is one ground-truth behaviour occurrence.
type Event struct {
	Day  int
	Apex dnsmsg.Name
	Kind BehaviorKind
	// From/To are provider keys where applicable ("" otherwise).
	From dps.ProviderKey
	To   dps.ProviderKey
}

// Events returns a copy of the ground-truth event log.
func (w *World) Events() []Event {
	return append([]Event(nil), w.events...)
}

func (w *World) record(kind BehaviorKind, apex dnsmsg.Name, from, to dps.ProviderKey) {
	w.events = append(w.events, Event{Day: w.day, Apex: apex, Kind: kind, From: from, To: to})
}

// samplePauseDays draws a pause duration calibrated to Fig. 5: roughly
// half the pauses end within a day, ~70% within five days, and a long tail
// stretches for weeks. Incapsula customers pause slightly shorter.
func (w *World) samplePauseDays(key dps.ProviderKey) int {
	v := w.rng.Float64()
	var days int
	switch {
	case v < 0.48:
		days = 1
	case v < 0.56:
		days = 2
	case v < 0.63:
		days = 3
	case v < 0.67:
		days = 4
	case v < 0.70:
		days = 5
	default:
		// Geometric tail beyond five days.
		days = 6
		for days < 35 && w.rng.Float64() > 0.18 {
			days++
		}
	}
	if key == dps.Incapsula && days > 1 {
		days-- // Fig. 5: Incapsula pause periods run slightly shorter
	}
	return days
}

// pauseCapable reports whether the provider exposes a pause (DNS-only)
// mode; the paper only ever observes PAUSE at Cloudflare and Incapsula.
func pauseCapable(key dps.ProviderKey) bool {
	return key == dps.Cloudflare || key == dps.Incapsula
}

// maybeChangeOriginIP applies the per-provider IP hygiene of Table V after
// a JOIN or RESUME.
func (w *World) maybeChangeOriginIP(site *website.Site, key dps.ProviderKey) {
	unchanged, ok := w.cfg.UnchangedRates[key]
	if !ok {
		unchanged = 0.6
	}
	if w.rng.Float64() < unchanged {
		return
	}
	if _, err := site.ChangeOriginIP(); err != nil {
		panic(fmt.Sprintf("world: changing origin IP of %s: %v", site.Domain().Apex, err))
	}
	w.record(BehaviorIPChange, site.Domain().Apex, key, key)
}

// AdvanceDay rolls the administrators' daily behaviour dice for every
// site, runs provider purge schedulers, and moves the clock forward one
// day. It returns the events generated that day.
func (w *World) AdvanceDay() []Event {
	before := len(w.events)
	if w.cedexis != nil {
		// The front-end re-optimizes CDN selection daily.
		w.cedexis.FlipAll(0.5)
	}
	for _, site := range w.sites {
		if w.multiCDN[site.Domain().Apex] {
			continue
		}
		w.stepSite(site)
	}
	w.day++
	w.Clock.AdvanceDays(1)
	// Providers sweep stale records at end of day, so a deadline of
	// "terminated + N days" is honoured on day N exactly.
	keys := dps.AllKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		if p, ok := w.providers[key]; ok {
			p.PurgeExpired()
		}
	}
	return append([]Event(nil), w.events[before:]...)
}

// AdvanceDays runs n daily steps.
func (w *World) AdvanceDays(n int) {
	for i := 0; i < n; i++ {
		w.AdvanceDay()
	}
}

// effectiveRates returns the day's behaviour hazards: the configured
// base rates scaled by every churn wave covering the current world day.
// With no waves configured this returns the base rates unchanged, so a
// wave-free world rolls exactly the same dice as before waves existed.
func (w *World) effectiveRates() (join, leave, pause, switchRate float64) {
	join, leave, pause, switchRate = w.cfg.JoinRate, w.cfg.LeaveRate, w.cfg.PauseRate, w.cfg.SwitchRate
	for _, wave := range w.cfg.Waves {
		if !wave.active(w.day) {
			continue
		}
		if wave.JoinMult > 0 {
			join *= wave.JoinMult
		}
		if wave.LeaveMult > 0 {
			leave *= wave.LeaveMult
		}
		if wave.PauseMult > 0 {
			pause *= wave.PauseMult
		}
		if wave.SwitchMult > 0 {
			switchRate *= wave.SwitchMult
		}
	}
	return join, leave, pause, switchRate
}

// stepSite rolls one site's daily behaviour.
func (w *World) stepSite(site *website.Site) {
	apex := site.Domain().Apex
	key, _, paused := site.Provider()
	joinRate, leaveRate, pauseRate, switchRate := w.effectiveRates()

	switch {
	case key == "":
		if w.rng.Float64() < joinRate {
			w.doJoin(site)
			return
		}
		if w.rng.Float64() < w.cfg.UnprotectedIPChangeRate {
			if _, err := site.ChangeOriginIP(); err != nil {
				panic(fmt.Sprintf("world: migrating %s: %v", apex, err))
			}
			w.record(BehaviorIPChange, apex, "", "")
		}
	case paused:
		if until, ok := w.pausedUntil[apex]; ok && w.day >= until {
			delete(w.pausedUntil, apex)
			if err := site.Resume(); err != nil {
				panic(fmt.Sprintf("world: resuming %s: %v", apex, err))
			}
			w.record(BehaviorResume, apex, key, key)
			w.maybeChangeOriginIP(site, key)
			return
		}
		// A paused site may still abandon the platform entirely.
		if w.rng.Float64() < leaveRate {
			w.doLeave(site, key)
			delete(w.pausedUntil, apex)
		}
	default: // protected, ON
		roll := w.rng.Float64()
		switch {
		case roll < leaveRate:
			w.doLeave(site, key)
		case roll < leaveRate+switchRate:
			w.doSwitch(site, key)
		case roll < leaveRate+switchRate+pauseRate && pauseCapable(key):
			if err := site.Pause(); err != nil {
				panic(fmt.Sprintf("world: pausing %s: %v", apex, err))
			}
			w.pausedUntil[apex] = w.day + w.samplePauseDays(key)
			w.record(BehaviorPause, apex, key, key)
		}
	}
}

func (w *World) doJoin(site *website.Site) {
	key := w.pickProvider()
	method := w.pickMethod(key)
	if err := site.Join(key, method, w.pickPlan()); err != nil {
		panic(fmt.Sprintf("world: joining %s -> %s: %v", site.Domain().Apex, key, err))
	}
	w.record(BehaviorJoin, site.Domain().Apex, "", key)
	w.maybeChangeOriginIP(site, key)
	if w.rng.Float64() < w.cfg.OriginRestrictedRate {
		if err := site.RestrictToProviderEdges(); err != nil {
			panic(fmt.Sprintf("world: restricting %s: %v", site.Domain().Apex, err))
		}
	}
}

func (w *World) doLeave(site *website.Site, from dps.ProviderKey) {
	notified := w.rng.Float64() < w.cfg.NotifiedLeaveRate
	w.maybePlantDecoy(site, notified)
	if err := site.Leave(notified); err != nil {
		panic(fmt.Sprintf("world: leaving %s: %v", site.Domain().Apex, err))
	}
	// Origins drop their edge ACL once unprotected.
	if err := site.RestrictToProviderEdges(); err != nil {
		panic(fmt.Sprintf("world: unrestricting %s: %v", site.Domain().Apex, err))
	}
	w.record(BehaviorLeave, site.Domain().Apex, from, "")
}

// maybePlantDecoy applies the §VI-B.2 countermeasure before a notified
// termination.
func (w *World) maybePlantDecoy(site *website.Site, notified bool) {
	if !notified || w.cfg.DecoyOnLeaveRate <= 0 {
		return
	}
	if w.rng.Float64() >= w.cfg.DecoyOnLeaveRate {
		return
	}
	if _, err := site.PlantDecoy(); err != nil {
		panic(fmt.Sprintf("world: planting decoy for %s: %v", site.Domain().Apex, err))
	}
}

func (w *World) doSwitch(site *website.Site, from dps.ProviderKey) {
	// Sample a destination provider different from the current one.
	to := from
	for attempts := 0; to == from && attempts < 16; attempts++ {
		to = w.pickProvider()
	}
	if to == from {
		return // share vector is degenerate; skip this switch
	}
	notified := w.rng.Float64() < w.cfg.NotifiedLeaveRate
	w.maybePlantDecoy(site, notified)
	if err := site.Switch(to, w.pickMethod(to), w.pickPlan(), notified); err != nil {
		panic(fmt.Sprintf("world: switching %s %s->%s: %v", site.Domain().Apex, from, to, err))
	}
	w.record(BehaviorSwitch, site.Domain().Apex, from, to)
	// Switching is typically NOT accompanied by an origin change (§IV-C.3
	// excludes SWITCH), which is exactly why residual resolution bites.
}
