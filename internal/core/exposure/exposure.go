// Package exposure tracks residual-resolution findings week over week:
// the Table VI per-week hidden-record and verified-origin counts, and the
// Fig. 9 exposure timeline (newly exposed, persistently exposed, and
// appear-then-disappear origins), including the purge-delay estimate.
package exposure

import (
	"sort"

	"rrdps/internal/core/filter"
	"rrdps/internal/dnsmsg"
)

// WeekObservation is one week's filtering result, reduced to sets.
type WeekObservation struct {
	Week     int
	Hidden   map[dnsmsg.Name]bool
	Verified map[dnsmsg.Name]bool
}

// Tracker accumulates weekly observations.
type Tracker struct {
	weeks []WeekObservation
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// AddWeek ingests one week's filter report. Weeks must be added in
// increasing order.
func (t *Tracker) AddWeek(week int, rep filter.Report) {
	if n := len(t.weeks); n > 0 && t.weeks[n-1].Week >= week {
		panic("exposure: weeks must be added in increasing order")
	}
	obs := WeekObservation{
		Week:     week,
		Hidden:   make(map[dnsmsg.Name]bool),
		Verified: make(map[dnsmsg.Name]bool),
	}
	for _, apex := range rep.HiddenApexes() {
		obs.Hidden[apex] = true
	}
	for _, apex := range rep.VerifiedApexes() {
		obs.Verified[apex] = true
	}
	t.weeks = append(t.weeks, obs)
}

// Weeks returns the number of observations.
func (t *Tracker) Weeks() int { return len(t.weeks) }

// LatestCounts returns the newest week's label and hidden/verified
// counts — Table VI's newest per-week row, for consumers
// (the follow-mode daemons) that report each appended week as it lands.
// ok is false on an empty tracker.
func (t *Tracker) LatestCounts() (week, hidden, verified int, ok bool) {
	if len(t.weeks) == 0 {
		return 0, 0, 0, false
	}
	obs := t.weeks[len(t.weeks)-1]
	return obs.Week, len(obs.Hidden), len(obs.Verified), true
}

// WeekState is one week's observation flattened to sorted name lists —
// the serializable form of WeekObservation.
type WeekState struct {
	Week     int
	Hidden   []dnsmsg.Name
	Verified []dnsmsg.Name
}

// ExportWeek captures the i-th week's observation (0-based, in the
// order added), its sets sorted so the encoding is deterministic. A
// week's observation never changes once added, so neither does its
// export.
func (t *Tracker) ExportWeek(i int) WeekState {
	obs := t.weeks[i]
	ws := WeekState{Week: obs.Week}
	for apex := range obs.Hidden {
		ws.Hidden = append(ws.Hidden, apex)
	}
	for apex := range obs.Verified {
		ws.Verified = append(ws.Verified, apex)
	}
	sort.Slice(ws.Hidden, func(a, b int) bool { return ws.Hidden[a] < ws.Hidden[b] })
	sort.Slice(ws.Verified, func(a, b int) bool { return ws.Verified[a] < ws.Verified[b] })
	return ws
}

// RestoreTracker rebuilds a tracker from exported weeks; AddWeek
// continues from the last restored week.
func RestoreTracker(weeks []WeekState) *Tracker {
	t := NewTracker()
	for _, ws := range weeks {
		obs := WeekObservation{
			Week:     ws.Week,
			Hidden:   make(map[dnsmsg.Name]bool, len(ws.Hidden)),
			Verified: make(map[dnsmsg.Name]bool, len(ws.Verified)),
		}
		for _, apex := range ws.Hidden {
			obs.Hidden[apex] = true
		}
		for _, apex := range ws.Verified {
			obs.Verified[apex] = true
		}
		t.weeks = append(t.weeks, obs)
	}
	return t
}

// TotalHidden returns the union size of hidden records across weeks (the
// Table VI "Total" row counts distinct records, which is why it is less
// than the per-week sum).
func (t *Tracker) TotalHidden() int {
	seen := make(map[dnsmsg.Name]bool)
	for _, obs := range t.weeks {
		for apex := range obs.Hidden {
			seen[apex] = true
		}
	}
	return len(seen)
}

// TotalVerified returns the union size of verified origins across weeks.
func (t *Tracker) TotalVerified() int {
	seen := make(map[dnsmsg.Name]bool)
	for _, obs := range t.weeks {
		for apex := range obs.Verified {
			seen[apex] = true
		}
	}
	return len(seen)
}

// Timeline summarizes the Fig. 9 exposure dynamics over verified origins.
type Timeline struct {
	// NewPerWeek counts origins first exposed in each week (index aligns
	// with the tracker's weeks; week 0's entry counts its full set).
	NewPerWeek []int
	// AlwaysExposed counts origins exposed in every observed week.
	AlwaysExposed int
	// AppearedAndDisappeared counts origins whose first and last exposure
	// both fall strictly inside the observation window — the purge (or
	// origin change) was observed.
	AppearedAndDisappeared int
	// Durations maps each origin to its observed exposure span in weeks
	// (last seen − first seen + 1).
	Durations map[dnsmsg.Name]int
}

// Timeline computes the Fig. 9 summary over verified origins.
func (t *Tracker) Timeline() Timeline {
	tl := Timeline{
		NewPerWeek: make([]int, len(t.weeks)),
		Durations:  make(map[dnsmsg.Name]int),
	}
	if len(t.weeks) == 0 {
		return tl
	}
	first := make(map[dnsmsg.Name]int)
	last := make(map[dnsmsg.Name]int)
	count := make(map[dnsmsg.Name]int)
	for i, obs := range t.weeks {
		for apex := range obs.Verified {
			if _, ok := first[apex]; !ok {
				first[apex] = i
				tl.NewPerWeek[i]++
			}
			last[apex] = i
			count[apex]++
		}
	}
	lastIdx := len(t.weeks) - 1
	for apex := range first {
		tl.Durations[apex] = last[apex] - first[apex] + 1
		if count[apex] == len(t.weeks) {
			tl.AlwaysExposed++
		}
		if first[apex] > 0 && last[apex] < lastIdx {
			tl.AppearedAndDisappeared++
		}
	}
	return tl
}
