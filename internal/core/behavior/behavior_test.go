package behavior

import (
	"testing"

	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
)

func on(p dps.ProviderKey) status.Adoption {
	return status.Adoption{Status: status.StatusOn, Provider: p}
}
func off(p dps.ProviderKey) status.Adoption {
	return status.Adoption{Status: status.StatusOff, Provider: p}
}
func none() status.Adoption { return status.Adoption{Status: status.StatusNone} }

func day(apex dnsmsg.Name, a status.Adoption) map[dnsmsg.Name]status.Adoption {
	return map[dnsmsg.Name]status.Adoption{apex: a}
}

func kindsOf(dets []Detection) []Kind {
	out := make([]Kind, len(dets))
	for i, d := range dets {
		out[i] = d.Kind
	}
	return out
}

func TestTableIVTransitions(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tests := []struct {
		name string
		prev status.Adoption
		cur  status.Adoption
		want []Kind
	}{
		{"join", none(), on(dps.Cloudflare), []Kind{Join}},
		{"join+pause", none(), off(dps.Cloudflare), []Kind{Join, Pause}},
		{"leave from on", on(dps.Cloudflare), none(), []Kind{Leave}},
		{"leave from off", off(dps.Cloudflare), none(), []Kind{Leave}},
		{"pause", on(dps.Cloudflare), off(dps.Cloudflare), []Kind{Pause}},
		{"resume", off(dps.Cloudflare), on(dps.Cloudflare), []Kind{Resume}},
		{"switch on-on", on(dps.Cloudflare), on(dps.Incapsula), []Kind{Switch}},
		{"switch off-on", off(dps.Cloudflare), on(dps.Incapsula), []Kind{Switch}},
		{"switch on-off", on(dps.Cloudflare), off(dps.Incapsula), []Kind{Switch}},
		{"null same", on(dps.Cloudflare), on(dps.Cloudflare), nil},
		{"null none", none(), none(), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := NewTracker(nil)
			tr.Observe(0, day(apex, tt.prev))
			got := tr.Observe(1, day(apex, tt.cur))
			if len(got) != len(tt.want) {
				t.Fatalf("detections = %v, want kinds %v", got, tt.want)
			}
			for i, k := range tt.want {
				if got[i].Kind != k {
					t.Fatalf("detections = %v, want kinds %v", kindsOf(got), tt.want)
				}
			}
		})
	}
}

func TestDetectionProviders(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	got := tr.Observe(1, day(apex, on(dps.Incapsula)))
	if len(got) != 1 || got[0].From != dps.Cloudflare || got[0].To != dps.Incapsula {
		t.Fatalf("switch detection = %+v", got)
	}
}

func TestPauseWindowTracking(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	tr.Observe(1, day(apex, off(dps.Cloudflare)))
	tr.Observe(2, day(apex, off(dps.Cloudflare)))
	tr.Observe(3, day(apex, off(dps.Cloudflare)))
	tr.Observe(4, day(apex, on(dps.Cloudflare)))

	ws := tr.PauseWindows()
	if len(ws) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
	w := ws[0]
	if w.StartDay != 1 || w.EndDay != 4 || w.Days() != 3 || !w.Resumed || w.ResumedAt != dps.Cloudflare {
		t.Fatalf("window = %+v", w)
	}
}

func TestPauseWindowCrossProviderResume(t *testing.T) {
	// Paper Fig. 5 "Overall" includes pauses at Cloudflare resumed at
	// Incapsula.
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	tr.Observe(1, day(apex, off(dps.Cloudflare)))
	tr.Observe(2, day(apex, on(dps.Incapsula)))
	ws := tr.PauseWindows()
	if len(ws) != 1 || !ws[0].Resumed || ws[0].ResumedAt != dps.Incapsula || ws[0].Provider != dps.Cloudflare {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestPauseWindowClosedByLeave(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	tr.Observe(1, day(apex, off(dps.Cloudflare)))
	tr.Observe(2, day(apex, none()))
	ws := tr.PauseWindows()
	if len(ws) != 1 || ws[0].Resumed {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestFirstObservationBaselineNoDetections(t *testing.T) {
	tr := NewTracker(nil)
	got := tr.Observe(0, day("site.com", on(dps.Cloudflare)))
	if len(got) != 0 {
		t.Fatalf("baseline produced detections: %v", got)
	}
}

func TestMissingDomainCarriesForward(t *testing.T) {
	// A transient resolution failure (domain absent from the day's map)
	// must not register as LEAVE.
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	if got := tr.Observe(1, map[dnsmsg.Name]status.Adoption{}); len(got) != 0 {
		t.Fatalf("absence produced detections: %v", got)
	}
	if got := tr.Observe(2, day(apex, on(dps.Cloudflare))); len(got) != 0 {
		t.Fatalf("reappearance produced detections: %v", got)
	}
	got := tr.Observe(3, day(apex, none()))
	if len(got) != 1 || got[0].Kind != Leave {
		t.Fatalf("detections = %v, want LEAVE", got)
	}
}

func TestExcludedDomainIgnored(t *testing.T) {
	const apex = dnsmsg.Name("multicdn.com")
	tr := NewTracker([]dnsmsg.Name{apex})
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	got := tr.Observe(1, day(apex, on(dps.Fastly)))
	if len(got) != 0 {
		t.Fatalf("excluded domain produced detections: %v", got)
	}
}

func TestObserveOutOfOrderPanics(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(3, day("a.com", none()))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Observe did not panic")
		}
	}()
	tr.Observe(3, day("a.com", none()))
}

func TestCounts(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(0, map[dnsmsg.Name]status.Adoption{
		"a.com": none(), "b.com": on(dps.Cloudflare), "c.com": on(dps.Cloudflare),
	})
	tr.Observe(1, map[dnsmsg.Name]status.Adoption{
		"a.com": on(dps.Incapsula),   // JOIN
		"b.com": off(dps.Cloudflare), // PAUSE
		"c.com": none(),              // LEAVE
	})
	counts := tr.Counts()
	if counts[Join] != 1 || counts[Pause] != 1 || counts[Leave] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	byDay := tr.CountsByDay()
	if byDay[1][Join] != 1 || len(byDay[0]) != 0 {
		t.Fatalf("byDay = %v", byDay)
	}
	if len(tr.Detections()) != 3 {
		t.Fatalf("detections = %v", tr.Detections())
	}
}

func TestOffAtBaselineOpensWindow(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, off(dps.Incapsula)))
	if len(tr.openPauses) != 1 {
		t.Fatalf("open pauses = %d", len(tr.openPauses))
	}
	tr.Observe(2, day(apex, on(dps.Incapsula)))
	ws := tr.PauseWindows()
	if len(ws) != 1 || ws[0].Days() != 2 {
		t.Fatalf("windows = %+v", ws)
	}
	if !ws[0].Censored {
		t.Fatal("day-0 baseline window must be censored: its true start is unobserved")
	}
}

// TestLateAppearingOffDomainCensored is the ISSUE 3 regression test: a
// domain first seen OFF in the MIDDLE of a campaign (it resolved for the
// first time on day 3) is a baseline observation for that domain, so its
// window must open — and be censored — exactly like a day-0 baseline.
// Before the provenance fix, such windows entered duration statistics
// with a truncated (lower-bound) length.
func TestLateAppearingOffDomainCensored(t *testing.T) {
	const early = dnsmsg.Name("early.com")
	const late = dnsmsg.Name("late.com")
	tr := NewTracker(nil)

	// Days 0-2: only early.com is observable; late.com's resolution fails.
	tr.Observe(0, day(early, on(dps.Cloudflare)))
	tr.Observe(1, day(early, on(dps.Cloudflare)))
	tr.Observe(2, day(early, on(dps.Cloudflare)))

	// Day 3: late.com appears for the first time, already OFF. No
	// detection may fire (there is no previous state to diff against), but
	// an exposure window must open.
	dets := tr.Observe(3, map[dnsmsg.Name]status.Adoption{
		early: off(dps.Cloudflare),
		late:  off(dps.Incapsula),
	})
	for _, d := range dets {
		if d.Apex == late {
			t.Fatalf("baseline appearance produced detection %+v", d)
		}
	}
	if len(tr.openPauses) != 2 {
		t.Fatalf("open pauses = %d, want 2", len(tr.openPauses))
	}

	// Day 5: both resume.
	tr.Observe(5, map[dnsmsg.Name]status.Adoption{
		early: on(dps.Cloudflare),
		late:  on(dps.Incapsula),
	})
	byApex := map[dnsmsg.Name]PauseWindow{}
	for _, w := range tr.PauseWindows() {
		byApex[w.Apex] = w
	}
	if w := byApex[late]; !w.Censored || w.StartDay != 3 || w.EndDay != 5 {
		t.Fatalf("late window = %+v, want censored [3,5]", w)
	}
	// early.com's pause was observed ON→OFF, so it is a measured window.
	if w := byApex[early]; w.Censored || w.Days() != 2 {
		t.Fatalf("early window = %+v, want measured 2-day window", w)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range AllKinds() {
		if k.String() == "" {
			t.Fatalf("kind %d empty string", k)
		}
	}
}

// Counts aggregates total detections per kind.
func (t *Tracker) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, d := range t.detections {
		out[d.Kind]++
	}
	return out
}
