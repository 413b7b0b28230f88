package experiment

import (
	"reflect"
	"testing"

	"rrdps/internal/world"
)

// diffResults compares two campaign results field by field so a mismatch
// names the diverging output instead of dumping two whole structs. skip
// names fields excluded from the comparison: with Workers > 1 the
// resolver's Stats depend on goroutine interleaving over the shared cache
// (the same latitude the serial≡parallel determinism tests allow), so
// parallel sub-tests skip "Stats" and serial sub-tests pin everything.
// Concurrent misses on one key are de-duplicated (dnsresolver's flight
// table), but a site can still find glue a later site's referral already
// cached, where a serial pass resolves that nameserver itself.
func diffResults(t *testing.T, streaming, legacy any, skip ...string) {
	t.Helper()
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	sv, lv := reflect.ValueOf(streaming), reflect.ValueOf(legacy)
	if sv.Type() != lv.Type() {
		t.Fatalf("type mismatch: %v vs %v", sv.Type(), lv.Type())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if skipped[name] {
			continue
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), lv.Field(i).Interface()) {
			t.Errorf("%s differs:\nstreaming: %+v\nlegacy:    %+v",
				name, sv.Field(i).Interface(), lv.Field(i).Interface())
		}
	}
}

// TestStreamingMatchesLegacy pins the tentpole guarantee: the streaming
// snapstore pipeline produces value-identical campaign outputs to the
// map-based reference pipeline (legacy_test.go) on the same seeded world
// — every breakdown, detection, pause window, Table V row, and even the
// resolver's resilience accounting (the two pipelines must issue the same
// queries in the same order).
func TestStreamingMatchesLegacy(t *testing.T) {
	t.Run("dynamics-42-days", func(t *testing.T) {
		legacy := legacyDynamics(Dynamics{World: dynamicsWorld(400, 4242), Days: 42})
		streaming := Dynamics{World: dynamicsWorld(400, 4242), Days: 42}.Run()
		diffResults(t, streaming, legacy)
	})

	t.Run("dynamics-long-intervals-parallel", func(t *testing.T) {
		run := func(legacy bool) DynamicsResult {
			d := Dynamics{
				World:            dynamicsWorld(300, 777),
				Days:             20,
				Workers:          4,
				LongIntervalProb: 0.3,
			}
			if legacy {
				return legacyDynamics(d)
			}
			return d.Run()
		}
		diffResults(t, run(false), run(true), "Stats")
	})

	t.Run("dynamics-bounded-vs-unbounded-window", func(t *testing.T) {
		// The retention window must not change results: evicted days are
		// never read back.
		bounded := Dynamics{World: dynamicsWorld(300, 99), Days: 10}.Run()
		unbounded := Dynamics{World: dynamicsWorld(300, 99), Days: 10, SnapWindow: -1}.Run()
		diffResults(t, bounded, unbounded)
	})

	t.Run("residual-6-weeks", func(t *testing.T) {
		run := func(legacy bool) ResidualResult {
			r := Residual{
				World:              residualWorld(400, 4242),
				Weeks:              6,
				WarmupDays:         21,
				IncapsulaStartWeek: 4,
			}
			if legacy {
				return legacyResidual(r)
			}
			return r.Run()
		}
		diffResults(t, run(false), run(true))
	})

	t.Run("residual-parallel", func(t *testing.T) {
		run := func(legacy bool) ResidualResult {
			r := Residual{
				World:      residualWorld(300, 77),
				Weeks:      3,
				WarmupDays: 14,
				Workers:    4,
			}
			if legacy {
				return legacyResidual(r)
			}
			return r.Run()
		}
		diffResults(t, run(false), run(true), "Stats")
	})
}

// TestStreamingWorldConsistency pins that the streaming pipeline still
// advances the world identically: the ground-truth event stream after a
// streaming run matches the one after a legacy run.
func TestStreamingWorldConsistency(t *testing.T) {
	wLegacy, wStreaming := dynamicsWorld(200, 5150), dynamicsWorld(200, 5150)
	legacyDynamics(Dynamics{World: wLegacy, Days: 8})
	Dynamics{World: wStreaming, Days: 8}.Run()
	if !reflect.DeepEqual(worldEvents(wLegacy), worldEvents(wStreaming)) {
		t.Fatal("world event streams diverged between pipelines")
	}
}

func worldEvents(w *world.World) []world.Event {
	return append([]world.Event(nil), w.Events()...)
}
