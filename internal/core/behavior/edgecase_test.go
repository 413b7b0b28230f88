package behavior

import (
	"reflect"
	"testing"

	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
)

// TestSameDayPauseSwitchPrecedence pins Table IV precedence when a pause
// and a provider change land in the same observation interval: ON@P1 →
// OFF@P2 is a single SWITCH ("switched and arrived paused"), never
// PAUSE+SWITCH, and the exposure window that opens belongs to the new
// provider.
func TestSameDayPauseSwitchPrecedence(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	dets := tr.Observe(1, day(apex, off(dps.Incapsula)))

	if want := []Kind{Switch}; !reflect.DeepEqual(kindsOf(dets), want) {
		t.Fatalf("ON@CF → OFF@Inc detections = %v, want %v", kindsOf(dets), want)
	}
	if dets[0].From != dps.Cloudflare || dets[0].To != dps.Incapsula {
		t.Fatalf("switch providers = %s → %s", dets[0].From, dets[0].To)
	}
	if len(tr.openPauses) != 1 {
		t.Fatalf("open pauses = %d, want 1", len(tr.openPauses))
	}

	// The window closes on resume at the NEW provider, attributed there.
	tr.Observe(2, day(apex, on(dps.Incapsula)))
	windows := tr.PauseWindows()
	if len(windows) != 1 {
		t.Fatalf("closed windows = %d, want 1", len(windows))
	}
	w := windows[0]
	if w.Provider != dps.Incapsula || !w.Resumed || w.ResumedAt != dps.Incapsula {
		t.Fatalf("window = %+v, want Incapsula-owned resumed window", w)
	}
	if w.StartDay != 1 || w.EndDay != 2 || w.Censored {
		t.Fatalf("window timing = %+v", w)
	}
}

// TestSameDayOffToOffSwitch pins the OFF→OFF provider change: one SWITCH,
// the old provider's window closes unresumed, and a fresh window opens at
// the new provider the same day.
func TestSameDayOffToOffSwitch(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, on(dps.Cloudflare)))
	tr.Observe(1, day(apex, off(dps.Cloudflare)))
	dets := tr.Observe(2, day(apex, off(dps.Edgecast)))

	if want := []Kind{Switch}; !reflect.DeepEqual(kindsOf(dets), want) {
		t.Fatalf("OFF@CF → OFF@EC detections = %v, want %v", kindsOf(dets), want)
	}
	closed := tr.PauseWindows()
	if len(closed) != 1 {
		t.Fatalf("closed windows = %d, want 1", len(closed))
	}
	if w := closed[0]; w.Provider != dps.Cloudflare || w.Resumed || w.StartDay != 1 || w.EndDay != 2 {
		t.Fatalf("closed window = %+v, want unresumed Cloudflare 1→2", w)
	}
	if len(tr.openPauses) != 1 {
		t.Fatalf("open pauses = %d, want 1 (Edgecast window)", len(tr.openPauses))
	}
}

// TestProviderAndMechanismChangeSameDay pins that a simultaneous provider
// and rerouting-mechanism change is exactly one SWITCH: Table IV tracks
// provider membership, and the mechanism (CNAME → NS) rides along without
// spawning extra detections.
func TestProviderAndMechanismChangeSameDay(t *testing.T) {
	const apex = dnsmsg.Name("site.com")
	tr := NewTracker(nil)
	tr.Observe(0, day(apex, status.Adoption{
		Status: status.StatusOn, Provider: dps.Incapsula, Rerouting: dps.ReroutingCNAME,
	}))
	dets := tr.Observe(1, day(apex, status.Adoption{
		Status: status.StatusOn, Provider: dps.Cloudflare, Rerouting: dps.ReroutingNS,
	}))

	if want := []Kind{Switch}; !reflect.DeepEqual(kindsOf(dets), want) {
		t.Fatalf("provider+mechanism change = %v, want %v", kindsOf(dets), want)
	}
	if dets[0].From != dps.Incapsula || dets[0].To != dps.Cloudflare {
		t.Fatalf("switch providers = %s → %s", dets[0].From, dets[0].To)
	}

	// Mechanism-only change at the same provider is NULL — no detection.
	if dets := tr.Observe(2, day(apex, status.Adoption{
		Status: status.StatusOn, Provider: dps.Cloudflare, Rerouting: dps.ReroutingCNAME,
	})); len(dets) != 0 {
		t.Fatalf("mechanism-only change detected %v, want nothing", kindsOf(dets))
	}
}

// TestStreamingObserveMatchesMap runs the same three-day scenario through
// the map-based Observe and the streaming BeginDay/ObserveOne/EndDay
// triple: detections, pause windows, and counts must be identical.
func TestStreamingObserveMatchesMap(t *testing.T) {
	a1, a2, a3 := dnsmsg.Name("a.com"), dnsmsg.Name("b.com"), dnsmsg.Name("c.com")
	days := []map[dnsmsg.Name]status.Adoption{
		{a1: on(dps.Cloudflare), a2: none(), a3: off(dps.Incapsula)},
		{a1: off(dps.Edgecast), a2: on(dps.Fastly), a3: on(dps.Incapsula)},
		{a1: none(), a2: on(dps.Fastly), a3: off(dps.Incapsula)},
	}

	mapTr := NewTracker([]dnsmsg.Name{a2})
	streamTr := NewTracker([]dnsmsg.Name{a2})
	for d, cur := range days {
		want := mapTr.Observe(d, cur)

		streamTr.BeginDay(d)
		for apex, adoption := range cur {
			streamTr.ObserveOne(apex, adoption)
		}
		got := streamTr.EndDay()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: streaming %v != map %v", d, got, want)
		}
	}
	if !reflect.DeepEqual(streamTr.Detections(), mapTr.Detections()) {
		t.Fatal("detection histories differ")
	}
	if !reflect.DeepEqual(streamTr.PauseWindows(), mapTr.PauseWindows()) {
		t.Fatal("pause windows differ")
	}
	if !reflect.DeepEqual(streamTr.CountsByDay(), mapTr.CountsByDay()) {
		t.Fatal("daily counts differ")
	}
	if len(streamTr.openPauses) != len(mapTr.openPauses) {
		t.Fatal("open pause counts differ")
	}
}

// TestStreamingMisusePanics pins the guard rails of the streaming API.
func TestStreamingMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("ObserveOne outside a day", func() {
		NewTracker(nil).ObserveOne("a.com", on(dps.Cloudflare))
	})
	expectPanic("EndDay without BeginDay", func() {
		NewTracker(nil).EndDay()
	})
	expectPanic("nested BeginDay", func() {
		tr := NewTracker(nil)
		tr.BeginDay(0)
		tr.BeginDay(1)
	})
	expectPanic("non-increasing day", func() {
		tr := NewTracker(nil)
		tr.Observe(3, nil)
		tr.BeginDay(3)
	})
}
