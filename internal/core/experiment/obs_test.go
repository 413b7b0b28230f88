package experiment

import (
	"testing"

	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/world"
)

// faultyResidualWorld builds a residual-campaign world with an active
// fault plan, so the equality tests below exercise the retry/hedge paths
// where scheduling-dependent metrics actually diverge.
func faultyResidualWorld(n int, seed int64) *world.World {
	cfg := world.PaperConfig(n)
	cfg.Seed = seed
	cfg.LeaveRate = 0.01
	cfg.SwitchRate = 0.008
	cfg.JoinRate = 0.002
	cfg.Faults = netsim.FaultConfig{LossRate: 0.05, FlakyRate: 0.1}
	return world.New(cfg)
}

// runResidualObs runs a faulty residual campaign with a registry and
// returns its snapshot. Every run checks the one-tally invariant on the
// way: the registry's dns.* counters are published by the same folds that
// build Result.Stats, so they must equal it field by field at any worker
// count.
func runResidualObs(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	reg := obs.NewRegistry()
	st := Residual{
		World:   faultyResidualWorld(500, 79),
		Weeks:   2,
		Workers: workers,
		Obs:     reg,
	}.Run().Stats
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"dns.queries": st.Queries, "dns.attempts": st.Attempts,
		"dns.retries": st.Retries, "dns.hedges": st.Hedges,
		"dns.timeouts": st.Timeouts, "dns.corrupt_replies": st.CorruptReplies,
		"dns.bad_responses": st.BadResponses, "dns.recovered": st.Recovered,
		"dns.failed": st.Failed, "dns.backoff_ns": uint64(st.Backoff),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("workers %d: registry %s = %d, Result.Stats has %d", workers, name, got, want)
		}
	}
	return snap
}

// TestObsSerialParallelEquality is the ISSUE 3 acceptance check: after
// identical campaigns, the deterministic slice of the registry — every
// stage counter, gauge, and histogram outside the volatile dns.* set —
// must be value-identical between a serial run and a parallel one, even
// with an active fault plan forcing retries and hedges. Run under -race
// this also shakes out unsynchronized registry access.
func TestObsSerialParallelEquality(t *testing.T) {
	serial := runResidualObs(t, 1).Deterministic()
	parallel := runResidualObs(t, 8).Deterministic()
	if !serial.Equal(parallel) {
		t.Fatalf("serial and parallel deterministic metrics differ:\n%s",
			serial.DiffNames(parallel))
	}
	if len(serial.Counters) == 0 {
		t.Fatal("deterministic snapshot has no counters — instrumentation not wired")
	}
	// The campaign must actually have hit the fault plan, or this test
	// proves nothing about resilience-path metrics.
	full := runResidualObs(t, 1)
	if full.Counters["dns.retries"] == 0 {
		t.Fatal("fault plan produced no retries; equality check is vacuous")
	}
}

// TestObsSerialRerunFullyEqual pins full determinism of the serial path:
// two serial runs over identically-seeded worlds agree on EVERY metric,
// volatile ones included — cache hits and misses, attempt and backoff
// counts. Only scheduling may perturb the volatile set.
func TestObsSerialRerunFullyEqual(t *testing.T) {
	a := runResidualObs(t, 1)
	b := runResidualObs(t, 1)
	if !a.Equal(b) {
		t.Fatalf("two serial runs differ:\n%s", a.DiffNames(b))
	}
	if a.Counters["scan.queries"] == 0 || a.Counters["collect.domains"] == 0 {
		t.Fatalf("stage counters missing: %v", a.Counters)
	}
}
