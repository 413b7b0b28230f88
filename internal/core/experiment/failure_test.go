package experiment

import (
	"fmt"
	"testing"

	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// TestPacketLossDoesNotFabricateBehaviours injects seeded datagram loss
// into the fabric and freezes all churn: any detected behaviour is then a false
// positive manufactured by resolution failures. The carry-forward rule in
// the tracker (a SERVFAIL day must not read as LEAVE) is what this guards.
func TestPacketLossDoesNotFabricateBehaviours(t *testing.T) {
	cfg := world.PaperConfig(600)
	cfg.Seed = 401
	cfg.JoinRate = 0
	cfg.LeaveRate = 0
	cfg.PauseRate = 0
	cfg.SwitchRate = 0
	cfg.UnprotectedIPChangeRate = 0
	cfg.Faults = netsim.FaultConfig{LossRate: 0.03}
	w := world.New(cfg)

	res := Dynamics{World: w, Days: 8}.Run()
	if len(res.Detections) != 0 {
		t.Fatalf("packet loss fabricated %d behaviours: %+v", len(res.Detections), res.Detections)
	}
}

// hiddenSet keys every hidden record a campaign found, across both case
// studies and all weeks, so runs can be compared as sets (recall) rather
// than by totals — loss can also fabricate "hidden" records by failing
// the normal resolution a scanned address is compared against.
func hiddenSet(res ResidualResult) map[string]bool {
	out := make(map[string]bool)
	add := func(tag string, reports []WeeklyReport) {
		for _, wr := range reports {
			for _, h := range wr.Report.Hidden {
				out[fmt.Sprintf("%s|%s|%s", tag, h.Apex, h.Addr)] = true
			}
		}
	}
	add("cf", res.Cloudflare)
	add("inc", res.Incapsula)
	return out
}

// recallOf counts how many of the clean run's hidden records the lossy run
// recovered.
func recallOf(clean, lossy map[string]bool) (hit, total int) {
	for k := range clean {
		if lossy[k] {
			hit++
		}
	}
	return hit, len(clean)
}

// TestFaultRecoveryResidualRecall is the fault-recovery acceptance
// criterion: at 3% seeded packet loss the default retry policy recovers at least
// 95% of the hidden records a lossless campaign finds, across three
// seeds. Under a much harsher deterministic fault plan (30% seeded loss
// plus flaky endpoints) the retrying campaign still recovers most of the
// clean set while the no-retry baseline measurably collapses — the margin
// the retry layer buys. Serial runs are deterministic per seed, so the
// thresholds are exact, not flaky.
func TestFaultRecoveryResidualRecall(t *testing.T) {
	noRetry := dnsresolver.NoRetryPolicy()
	harsh := netsim.FaultConfig{LossRate: 0.3, FlakyRate: 0.3}

	var uniformHit, uniformTotal int
	var harshRetryHit, harshPlainHit, harshTotal int
	for _, seed := range []int64{403, 407, 411} {
		clean := hiddenSet(Residual{
			World: world.New(countermeasureConfig(seed)), Weeks: 2, WarmupDays: 21,
		}.Run())
		if len(clean) == 0 {
			t.Fatalf("seed %d: lossless baseline found nothing", seed)
		}

		run := func(faults netsim.FaultConfig, pol *dnsresolver.Policy) ResidualResult {
			cfg := countermeasureConfig(seed)
			cfg.Faults = faults
			return Residual{World: world.New(cfg), Weeks: 2, WarmupDays: 21, Policy: pol}.Run()
		}

		lossy := run(netsim.FaultConfig{LossRate: 0.03}, nil)
		if lossy.Stats.Retries == 0 || lossy.Stats.Recovered == 0 {
			t.Fatalf("seed %d: lossy campaign shows no retry activity: %v", seed, lossy.Stats)
		}
		hit, total := recallOf(clean, hiddenSet(lossy))
		uniformHit += hit
		uniformTotal += total

		hit, _ = recallOf(clean, hiddenSet(run(harsh, nil)))
		harshRetryHit += hit
		hit, _ = recallOf(clean, hiddenSet(run(harsh, &noRetry)))
		harshPlainHit += hit
		harshTotal += total
	}

	t.Logf("recall: 3%% loss %d/%d; harsh faults %d/%d with retries, %d/%d without",
		uniformHit, uniformTotal, harshRetryHit, harshTotal, harshPlainHit, harshTotal)
	if recall := float64(uniformHit) / float64(uniformTotal); recall < 0.95 {
		t.Fatalf("3%% loss with retries: recall %d/%d = %.1f%%, want ≥ 95%%",
			uniformHit, uniformTotal, recall*100)
	}
	if harshRetryHit <= harshPlainHit {
		t.Fatalf("harsh faults: retry recall %d/%d not above no-retry %d/%d",
			harshRetryHit, harshTotal, harshPlainHit, harshTotal)
	}
	if recall := float64(harshRetryHit) / float64(harshTotal); recall < 0.85 {
		t.Fatalf("harsh faults with retries: recall %d/%d = %.1f%%, want ≥ 85%%",
			harshRetryHit, harshTotal, recall*100)
	}
	if recall := float64(harshPlainHit) / float64(harshTotal); recall > 0.8 {
		t.Fatalf("harsh faults without retries: recall %d/%d = %.1f%% — baseline too healthy for the contrast to mean anything",
			harshPlainHit, harshTotal, recall*100)
	}
}

// TestFaultRecoveryDynamicsNoFabrication extends the packet-loss
// fabrication guard across seeds with the default retry policy active:
// with all churn frozen, a lossy fabric must yield zero detected
// behaviours — retries reduce failed resolutions, and the carry-forward
// rule masks the rest.
func TestFaultRecoveryDynamicsNoFabrication(t *testing.T) {
	for _, seed := range []int64{401, 503, 509} {
		cfg := world.PaperConfig(600)
		cfg.Seed = seed
		cfg.JoinRate = 0
		cfg.LeaveRate = 0
		cfg.PauseRate = 0
		cfg.SwitchRate = 0
		cfg.UnprotectedIPChangeRate = 0
		cfg.Faults = netsim.FaultConfig{LossRate: 0.03}
		res := Dynamics{World: world.New(cfg), Days: 8}.Run()
		if len(res.Detections) != 0 {
			t.Fatalf("seed %d: loss fabricated %d behaviours: %+v", seed, len(res.Detections), res.Detections)
		}
		if res.Stats.Queries == 0 {
			t.Fatalf("seed %d: no query accounting: %+v", seed, res.Stats)
		}
	}
}

// TestPacketLossDegradesButDoesNotBreakResidualScan: the §V campaign under
// loss still finds a subset of the lossless campaign's hidden records and
// never invents extra verified origins.
func TestPacketLossResidualScanSubset(t *testing.T) {
	clean := countermeasureConfig(403)
	cleanRes := Residual{World: world.New(clean), Weeks: 2, WarmupDays: 21}.Run()
	cleanHidden, _ := cleanRes.TotalHidden()
	if cleanHidden == 0 {
		t.Fatal("lossless baseline found nothing")
	}

	lossy := countermeasureConfig(403)
	lossy.Faults = netsim.FaultConfig{LossRate: 0.02}
	lossyRes := Residual{World: world.New(lossy), Weeks: 2, WarmupDays: 21}.Run()
	lossyHidden, _ := lossyRes.TotalHidden()
	lossyVerified, _ := lossyRes.TotalVerified()

	if lossyVerified > lossyHidden {
		t.Fatalf("verified %d > hidden %d under loss", lossyVerified, lossyHidden)
	}
	// Loss can only suppress scan answers and verifications, not invent
	// them wholesale; allow broad slack since the worlds churn identically
	// by seed.
	if lossyHidden > cleanHidden*2+4 {
		t.Fatalf("lossy scan found %d hidden vs %d clean", lossyHidden, cleanHidden)
	}
}
