package world

import (
	"testing"

	"rrdps/internal/dps"
	"rrdps/internal/netsim"
)

// TestZeroWavesByteIdentical pins the wave mechanism's no-op guarantee:
// a config with no waves and one with an empty slice roll exactly the
// same dice as each other (and as every pre-wave world), producing an
// identical event log.
func TestZeroWavesByteIdentical(t *testing.T) {
	base := smallConfig(400)
	base.Waves = nil
	withEmpty := smallConfig(400)
	withEmpty.Waves = []ChurnWave{}

	a, b := New(base), New(withEmpty)
	a.AdvanceDays(15)
	b.AdvanceDays(15)
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event logs differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestWaveElevatesChurn drives a switch/leave wave through a window of
// days and checks the inside-wave daily event rate clearly exceeds the
// outside-wave rate.
func TestWaveElevatesChurn(t *testing.T) {
	cfg := smallConfig(1500)
	cfg.LeaveRate = 2e-3
	cfg.SwitchRate = 1e-3
	cfg.Waves = []ChurnWave{{StartDay: 10, Days: 5, LeaveMult: 12, SwitchMult: 12}}
	w := New(cfg)
	w.AdvanceDays(25)

	inside, outside := 0, 0
	for _, e := range w.Events() {
		if e.Kind != BehaviorLeave && e.Kind != BehaviorSwitch {
			continue
		}
		if e.Day >= 10 && e.Day < 15 {
			inside++
		} else {
			outside++
		}
	}
	insideRate := float64(inside) / 5
	outsideRate := float64(outside) / 20
	if outsideRate == 0 {
		if inside == 0 {
			t.Fatal("no churn events at all")
		}
	} else if insideRate < 3*outsideRate {
		t.Fatalf("inside rate %.2f/day not clearly above outside %.2f/day", insideRate, outsideRate)
	}
	if inside == 0 {
		t.Fatal("wave produced no churn events")
	}
}

// TestWaveMultiplierCompounding checks overlapping waves multiply and
// zero multipliers leave hazards untouched.
func TestWaveMultiplierCompounding(t *testing.T) {
	cfg := smallConfig(100)
	cfg.JoinRate, cfg.LeaveRate, cfg.PauseRate, cfg.SwitchRate = 0.1, 0.2, 0.3, 0.05
	cfg.Waves = []ChurnWave{
		{StartDay: 0, Days: 3, LeaveMult: 2},
		{StartDay: 2, Days: 2, LeaveMult: 3, JoinMult: 0.5},
	}
	w := New(cfg)

	near := func(got, want float64) bool {
		d := got - want
		return d < 1e-12 && d > -1e-12
	}
	w.day = 1 // only the first wave
	_, leave, pause, _ := w.effectiveRates()
	if !near(leave, 0.4) || !near(pause, 0.3) {
		t.Fatalf("day 1: leave=%v pause=%v, want 0.4/0.3", leave, pause)
	}
	w.day = 2 // both waves overlap
	join, leave, _, _ := w.effectiveRates()
	if !near(leave, 1.2) {
		t.Fatalf("day 2: leave=%v, want 1.2", leave)
	}
	if join != 0.05 {
		t.Fatalf("day 2: join=%v, want 0.05", join)
	}
	w.day = 4 // past both
	join, leave, _, sw := w.effectiveRates()
	if join != 0.1 || leave != 0.2 || sw != 0.05 {
		t.Fatalf("day 4: join=%v leave=%v switch=%v, want base rates", join, leave, sw)
	}
}

func TestWaveValidation(t *testing.T) {
	for name, wave := range map[string]ChurnWave{
		"zero days":     {StartDay: 1, Days: 0, LeaveMult: 2},
		"negative day":  {StartDay: -1, Days: 3},
		"negative mult": {StartDay: 0, Days: 3, SwitchMult: -2},
	} {
		cfg := smallConfig(50)
		cfg.Waves = []ChurnWave{wave}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNSRateLimitInstalled checks the limiter lands on provider NS pool
// and infrastructure nameserver endpoints but not on the DNS backbone.
func TestNSRateLimitInstalled(t *testing.T) {
	cfg := smallConfig(100)
	cfg.NSRateLimit = netsim.LimitConfig{PerSource: 5}
	w := New(cfg)

	cf, _ := w.Provider(dps.Cloudflare)
	pool := cf.NSPool()
	if len(pool) == 0 {
		t.Fatal("empty NS pool")
	}
	addr, ok := cf.NSPoolAddr(pool[0])
	if !ok {
		t.Fatalf("no address for pool host %s", pool[0])
	}
	if got := w.Net.Limit(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}); !got.Enabled() {
		t.Fatalf("pool nameserver %s unlimited, want PerSource 5", addr)
	}
	for _, infraAddr := range cf.InfraNS() {
		if got := w.Net.Limit(netsim.Endpoint{Addr: infraAddr, Port: netsim.PortDNS}); !got.Enabled() {
			t.Fatalf("infra nameserver %s unlimited", infraAddr)
		}
	}
	for _, root := range w.rootAddrs {
		if got := w.Net.Limit(netsim.Endpoint{Addr: root, Port: netsim.PortDNS}); got.Enabled() {
			t.Fatalf("root server %s rate-limited", root)
		}
	}
}
