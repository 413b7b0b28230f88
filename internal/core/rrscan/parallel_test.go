package rrscan

import (
	"net/netip"
	"testing"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
)

func sameScanResults(t *testing.T, serial, parallel map[dnsmsg.Name][]netip.Addr) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("result sizes differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for key, want := range serial {
		got, ok := parallel[key]
		if !ok {
			t.Fatalf("parallel result missing %s", key)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: serial %v, parallel %v", key, want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: serial %v, parallel %v", key, want, got)
			}
		}
	}
}

// TestScanDirectParallelMatchesSerial runs the direct scan with eight
// workers and asserts the result map is value-identical to the serial scan
// (run under -race in CI, this also proves the path race-free).
func TestScanDirectParallelMatchesSerial(t *testing.T) {
	f := newFixture(t, 400)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(nsAddrs) == 0 {
		t.Fatal("no nameservers discovered")
	}
	domains := f.domains

	serial := f.scanner.ScanDirect(nsAddrs, domains)
	if len(serial) == 0 {
		t.Fatal("serial scan empty")
	}

	par := NewScanner(f.vantage)
	par.SetWorkers(8)
	parallel := par.ScanDirect(nsAddrs, domains)
	sameScanResults(t, serial, parallel)
}

// TestScanDirectHostsParallelMatchesSerial covers the generalized host scan.
func TestScanDirectHostsParallelMatchesSerial(t *testing.T) {
	f := newFixture(t, 300)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(nsAddrs) == 0 {
		t.Fatal("no nameservers discovered")
	}
	var hosts []dnsmsg.Name
	for _, d := range f.domains {
		hosts = append(hosts, d.WWW(), d.Apex)
	}

	serial := f.scanner.ScanDirectHosts(nsAddrs, hosts)
	par := NewScanner(f.vantage)
	par.SetWorkers(8)
	sameScanResults(t, serial, par.ScanDirectHosts(nsAddrs, hosts))
}

// TestScannerVantageRotationStableAcrossCalls checks that consecutive
// parallel scans keep advancing the rotation exactly like serial ones: two
// back-to-back scans from one scanner equal two from another regardless of
// worker count.
func TestScannerVantageRotationStableAcrossCalls(t *testing.T) {
	f := newFixture(t, 200)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(nsAddrs) == 0 {
		t.Fatal("no nameservers discovered")
	}
	domains := f.domains

	first := f.scanner.ScanDirect(nsAddrs, domains[:50])
	second := f.scanner.ScanDirect(nsAddrs, domains[50:100])

	par := NewScanner(f.vantage)
	par.SetWorkers(4)
	sameScanResults(t, first, par.ScanDirect(nsAddrs, domains[:50]))
	sameScanResults(t, second, par.ScanDirect(nsAddrs, domains[50:100]))
}

// TestCNAMELibraryResolveAllParallelMatchesSerial covers the Incapsula
// re-resolution path with a worker pool.
func TestCNAMELibraryResolveAllParallelMatchesSerial(t *testing.T) {
	f := newFixture(t, 1200)
	lib := f.cnameLibrary(0, dps.Incapsula)
	if lib.Size() == 0 {
		t.Skip("no incapsula sites in sample")
	}

	f.resolver.PurgeCache()
	serial := lib.ResolveAll(f.resolver)
	if len(serial) == 0 {
		t.Fatal("serial ResolveAll empty")
	}

	lib.SetWorkers(8)
	f.resolver.PurgeCache()
	sameScanResults(t, serial, lib.ResolveAll(f.resolver))
}

func TestScannerSetWorkersPanicsOnZero(t *testing.T) {
	f := newFixture(t, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWorkers(0) did not panic")
		}
	}()
	f.scanner.SetWorkers(0)
}
