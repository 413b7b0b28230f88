package rrscan

import (
	"net/netip"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
)

// faultyFixture builds a fixture whose fabric injects deterministic
// faults, with the default retry policy installed on the scanner, and
// discovers the Cloudflare nameserver pool (serially, so both sides of a
// comparison see identical discovery).
func faultyFixture(t *testing.T) (*fixture, []netip.Addr, []alexa.Domain) {
	t.Helper()
	f := newFixture(t, 300)
	f.w.Net.SetFaults(netsim.FaultConfig{
		Seed:        77,
		LossRate:    0.15,
		FlakyRate:   0.2,
		CorruptRate: 0.05,
	})
	f.scanner.SetPolicy(dnsresolver.DefaultPolicy())

	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(nsAddrs) == 0 {
		t.Fatal("no nameservers discovered under faults")
	}
	return f, nsAddrs, f.domains
}

// TestScanDirectFaultsDeterministicSerialVsParallel is the retry-layer
// determinism property: on a faulty fabric, a parallel scan under the
// default retry policy produces the same answers AND the same QueryStats
// as a serial scan of an identically seeded world. Query IDs are
// scheduling-independent hashes, fault decisions are content hashes, and
// the sideline set only moves at checkpoints — so nothing observable
// depends on goroutine interleaving. Run under -race in CI.
func TestScanDirectFaultsDeterministicSerialVsParallel(t *testing.T) {
	serialF, serialNS, serialDomains := faultyFixture(t)
	parF, parNS, parDomains := faultyFixture(t)
	parF.scanner.SetWorkers(8)

	if len(serialNS) != len(parNS) || len(serialDomains) != len(parDomains) {
		t.Fatalf("fixture divergence: %d/%d nameservers, %d/%d domains",
			len(serialNS), len(parNS), len(serialDomains), len(parDomains))
	}

	// Two consecutive scan passes: the second exercises the health
	// checkpoint between passes and the vantage rotation carry-over.
	for pass := 0; pass < 2; pass++ {
		serial := serialF.scanner.ScanDirect(serialNS, serialDomains)
		parallel := parF.scanner.ScanDirect(parNS, parDomains)
		if len(serial) == 0 {
			t.Fatalf("pass %d: serial scan empty", pass)
		}
		sameScanResults(t, serial, parallel)

		serialStats, parStats := serialF.scanner.Stats(), parF.scanner.Stats()
		if serialStats != parStats {
			t.Fatalf("pass %d: stats diverge\nserial:   %v\nparallel: %v", pass, serialStats, parStats)
		}
		if pass == 1 && serialStats.Retries == 0 {
			t.Fatal("fault plan injected nothing — property test is vacuous")
		}
	}
}

// TestScanDirectFaultsRecoverVsNoRetry: on the same faulty fabric the
// retrying scanner answers for strictly more domains than the no-retry
// scanner, and every no-retry answer matches the retrying one (retries
// only fill holes, never change values).
func TestScanDirectFaultsRecoverVsNoRetry(t *testing.T) {
	retryF, retryNS, retryDomains := faultyFixture(t)
	plainF, plainNS, plainDomains := faultyFixture(t)
	plainF.scanner.SetPolicy(dnsresolver.NoRetryPolicy())

	withRetry := retryF.scanner.ScanDirect(retryNS, retryDomains)
	without := plainF.scanner.ScanDirect(plainNS, plainDomains)

	if len(withRetry) <= len(without) {
		t.Fatalf("retrying scan answered %d domains, no-retry %d — retries recovered nothing",
			len(withRetry), len(without))
	}
	for apex, addrs := range without {
		got, ok := withRetry[apex]
		if !ok {
			// A hedge can answer from an alternate nameserver; for active
			// customers every pool server serves the same zone, so answers
			// present without retries must persist with them.
			t.Fatalf("%s answered without retries but missing with them", apex)
		}
		if len(got) != len(addrs) {
			t.Fatalf("%s: no-retry %v vs retry %v", apex, addrs, got)
		}
	}

	stats := retryF.scanner.Stats()
	if stats.Recovered == 0 {
		t.Fatalf("retrying scanner stats show no recoveries: %v", stats)
	}
}
