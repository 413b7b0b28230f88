// Package behavior implements the paper's usage-behaviour detection
// (§IV-B.3): diffing consecutive daily DPS-status snapshots through the
// finite state machine of Fig. 4 to detect LEAVE, JOIN, PAUSE, RESUME, and
// SWITCH (Table IV), and tracking pause windows (the exposure windows of
// Fig. 5).
package behavior

import (
	"fmt"
	"sort"

	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
)

// Kind is a detected usage behaviour (Table IV).
type Kind int

// Usage behaviours.
const (
	Join Kind = iota + 1
	Leave
	Pause
	Resume
	Switch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Join:
		return "JOIN"
	case Leave:
		return "LEAVE"
	case Pause:
		return "PAUSE"
	case Resume:
		return "RESUME"
	case Switch:
		return "SWITCH"
	default:
		return fmt.Sprintf("KIND%d", int(k))
	}
}

// AllKinds lists the Table IV behaviours in order.
func AllKinds() []Kind { return []Kind{Join, Leave, Pause, Resume, Switch} }

// Detection is one detected behaviour. Two behaviours can fire on the same
// day for one domain (e.g. J+P when a site joins and immediately pauses);
// each is reported as its own Detection.
type Detection struct {
	Day  int
	Apex dnsmsg.Name
	Kind Kind
	From dps.ProviderKey // "" where not applicable
	To   dps.ProviderKey
}

// PauseWindow is one OFF interval — the origin-exposure window of §IV-C.1.
type PauseWindow struct {
	Apex     dnsmsg.Name
	Provider dps.ProviderKey // provider where the pause started
	StartDay int
	EndDay   int
	// Resumed is true when the window closed with protection back ON
	// (possibly at another provider); false when the site left instead.
	Resumed bool
	// ResumedAt is the provider where protection resumed.
	ResumedAt dps.ProviderKey
	// Censored is true when the window was opened at a baseline
	// observation — the campaign's day 0, or a domain's first appearance
	// mid-campaign — where the site was already OFF. The true start of
	// such a window predates observation by an unknown amount, so its
	// Days() is a lower bound; duration statistics (the Fig. 5 CDF) must
	// exclude censored windows or they skew short.
	Censored bool
}

// Days returns the window length in days.
func (w PauseWindow) Days() int { return w.EndDay - w.StartDay }

// Tracker consumes daily classifications — as whole maps (Observe) or as
// a stream (BeginDay/ObserveOne/EndDay) — and emits detections.
type Tracker struct {
	prev        map[dnsmsg.Name]status.Adoption
	excluded    map[dnsmsg.Name]bool
	openPauses  map[dnsmsg.Name]PauseWindow
	closed      []PauseWindow
	detections  []Detection
	observedDay int

	// Streaming-day state, valid between BeginDay and EndDay.
	dayOpen  bool
	dayFirst bool
	dayOut   []Detection
}

// NewTracker creates a tracker. Domains in excluded — e.g. multi-CDN
// front-ends like Cedexis customers, whose dynamic selection defeats
// day-over-day attribution (§IV-B.3) — are ignored entirely.
func NewTracker(excluded []dnsmsg.Name) *Tracker {
	ex := make(map[dnsmsg.Name]bool, len(excluded))
	for _, apex := range excluded {
		ex[apex] = true
	}
	return &Tracker{
		prev:        make(map[dnsmsg.Name]status.Adoption),
		excluded:    ex,
		openPauses:  make(map[dnsmsg.Name]PauseWindow),
		observedDay: -1,
	}
}

// Observe ingests one day's classifications and returns the behaviours
// detected against the previous day. Domains absent from cur (e.g. their
// resolution failed) carry their previous state forward — a transient
// SERVFAIL must not read as a LEAVE. It is the map-based form of the
// streaming BeginDay/ObserveOne/EndDay triple and produces identical
// state and detections.
func (t *Tracker) Observe(day int, cur map[dnsmsg.Name]status.Adoption) []Detection {
	t.BeginDay(day)
	for apex, adoption := range cur {
		t.ObserveOne(apex, adoption)
	}
	return t.EndDay()
}

// BeginDay opens a streaming observation day. Feed every classified
// domain through ObserveOne, then close with EndDay. Days must be
// observed in strictly increasing order.
func (t *Tracker) BeginDay(day int) {
	if t.dayOpen {
		panic(fmt.Sprintf("behavior: BeginDay(%d) with day %d still open", day, t.observedDay))
	}
	if day <= t.observedDay {
		panic(fmt.Sprintf("behavior: BeginDay(%d) after day %d", day, t.observedDay))
	}
	t.dayOpen = true
	t.dayFirst = t.observedDay < 0
	t.observedDay = day
	t.dayOut = nil
}

// ObserveOne ingests one domain's classification for the open day,
// diffing it against the domain's previous state as it arrives — the
// streaming half of the Fig. 4 FSM. Order does not matter: the day's
// detections are canonically sorted at EndDay.
func (t *Tracker) ObserveOne(apex dnsmsg.Name, adoption status.Adoption) {
	if !t.dayOpen {
		panic("behavior: ObserveOne outside BeginDay/EndDay")
	}
	if t.excluded[apex] {
		return
	}
	day := t.observedDay
	prev, seen := t.prev[apex]
	t.prev[apex] = adoption
	if t.dayFirst || !seen {
		// Baseline observation — the campaign's first day, or a domain
		// appearing mid-campaign: record state, detect nothing; but a
		// site first seen OFF has an open exposure window. Its true
		// start is unobserved (the site may have been OFF for weeks
		// already), so the window is censored and excluded from
		// duration statistics.
		if adoption.Status == status.StatusOff {
			t.openPauses[apex] = PauseWindow{Apex: apex, Provider: adoption.Provider, StartDay: day, Censored: true}
		}
		return
	}
	t.dayOut = append(t.dayOut, t.transition(day, apex, prev, adoption)...)
}

// EndDay closes the open day and returns its detections, sorted by
// (apex, kind) — the same canonical order Observe returns.
func (t *Tracker) EndDay() []Detection {
	if !t.dayOpen {
		panic("behavior: EndDay without BeginDay")
	}
	t.dayOpen = false
	out := t.dayOut
	t.dayOut = nil
	sort.Slice(out, func(i, j int) bool {
		if out[i].Apex != out[j].Apex {
			return out[i].Apex < out[j].Apex
		}
		return out[i].Kind < out[j].Kind
	})
	t.detections = append(t.detections, out...)
	return out
}

// transition applies the Fig. 4 FSM to one domain's day-over-day change.
func (t *Tracker) transition(day int, apex dnsmsg.Name, prev, cur status.Adoption) []Detection {
	if prev.Status == cur.Status && prev.Provider == cur.Provider {
		return nil // NULL
	}
	var out []Detection
	emit := func(kind Kind, from, to dps.ProviderKey) {
		out = append(out, Detection{Day: day, Apex: apex, Kind: kind, From: from, To: to})
	}

	switch prev.Status {
	case status.StatusNone:
		switch cur.Status {
		case status.StatusOn:
			emit(Join, "", cur.Provider)
		case status.StatusOff:
			// J+P: joined and paused within one interval.
			emit(Join, "", cur.Provider)
			emit(Pause, cur.Provider, cur.Provider)
			t.openPauses[apex] = PauseWindow{Apex: apex, Provider: cur.Provider, StartDay: day}
		}
	case status.StatusOn:
		switch cur.Status {
		case status.StatusNone:
			emit(Leave, prev.Provider, "")
		case status.StatusOff:
			if cur.Provider == prev.Provider {
				emit(Pause, prev.Provider, prev.Provider)
			} else {
				// Switched and arrived paused.
				emit(Switch, prev.Provider, cur.Provider)
			}
			t.openPauses[apex] = PauseWindow{Apex: apex, Provider: cur.Provider, StartDay: day}
		case status.StatusOn:
			emit(Switch, prev.Provider, cur.Provider)
		}
	case status.StatusOff:
		switch cur.Status {
		case status.StatusNone:
			emit(Leave, prev.Provider, "")
			t.closePause(apex, day, false, "")
		case status.StatusOn:
			if cur.Provider == prev.Provider {
				emit(Resume, prev.Provider, prev.Provider)
			} else {
				emit(Switch, prev.Provider, cur.Provider)
			}
			t.closePause(apex, day, true, cur.Provider)
		case status.StatusOff:
			// Provider changed while staying OFF.
			emit(Switch, prev.Provider, cur.Provider)
			t.closePause(apex, day, false, "")
			t.openPauses[apex] = PauseWindow{Apex: apex, Provider: cur.Provider, StartDay: day}
		}
	}
	return out
}

func (t *Tracker) closePause(apex dnsmsg.Name, day int, resumed bool, at dps.ProviderKey) {
	w, ok := t.openPauses[apex]
	if !ok {
		return
	}
	delete(t.openPauses, apex)
	w.EndDay = day
	w.Resumed = resumed
	w.ResumedAt = at
	t.closed = append(t.closed, w)
}

// Detections returns every detection so far, in observation order.
func (t *Tracker) Detections() []Detection {
	return append([]Detection(nil), t.detections...)
}

// PauseWindows returns the closed pause windows, ordered by start day and
// apex (observation order over a map is not deterministic; reports must
// be).
func (t *Tracker) PauseWindows() []PauseWindow {
	out := append([]PauseWindow(nil), t.closed...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartDay != out[j].StartDay {
			return out[i].StartDay < out[j].StartDay
		}
		if out[i].Apex != out[j].Apex {
			return out[i].Apex < out[j].Apex
		}
		return out[i].EndDay < out[j].EndDay
	})
	return out
}

// CountsByDay aggregates detections per day per kind — the Fig. 3 series.
func (t *Tracker) CountsByDay() map[int]map[Kind]int {
	out := make(map[int]map[Kind]int)
	for _, d := range t.detections {
		if out[d.Day] == nil {
			out[d.Day] = make(map[Kind]int)
		}
		out[d.Day][d.Kind]++
	}
	return out
}

// DayCounts aggregates one day's detections per kind — the single-day
// increment of CountsByDay, for consumers (the follow-mode daemons) that
// fold artifacts forward one appended day at a time instead of
// re-aggregating the whole campaign.
func (t *Tracker) DayCounts(day int) map[Kind]int {
	out := make(map[Kind]int)
	// Detections are appended in day order, so the day's block is a
	// suffix scan that stops as soon as an earlier day appears.
	for i := len(t.detections) - 1; i >= 0; i-- {
		d := t.detections[i]
		if d.Day != day {
			if d.Day < day {
				break
			}
			continue
		}
		out[d.Kind]++
	}
	return out
}
