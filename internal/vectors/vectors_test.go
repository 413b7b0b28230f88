package vectors

import (
	"net/netip"
	"testing"

	"rrdps/internal/core/match"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/pdns"
	"rrdps/internal/website"
	"rrdps/internal/world"
)

// buildExposedWorld creates a world in which every site carries the full
// Table I surface.
func buildExposedWorld(t *testing.T) (*world.World, *website.Site) {
	t.Helper()
	cfg := world.PaperConfig(150)
	cfg.Seed = 77
	cfg.Exposures = world.ExposureRates{
		Subdomain: 1, MailRecord: 1, BodyLeak: 1,
		SensitiveFile: 1, Certificate: 1, Pingback: 1,
	}
	cfg.OriginRestrictedRate = 0
	cfg.DynamicMetaRate = 0
	w := world.New(cfg)
	for _, s := range w.Sites() {
		if key, method, _ := s.Provider(); key == dps.Cloudflare && method == dps.ReroutingNS {
			return w, s
		}
	}
	t.Fatal("no cloudflare NS site")
	return nil, nil
}

func newScanner(t *testing.T, w *world.World, archive *pdns.Archive) *Scanner {
	t.Helper()
	resolver := w.NewResolver(netsim.RegionOregon)
	return New(Config{
		Network:    w.Net,
		Resolver:   resolver,
		HTTP:       w.NewHTTPClient(netsim.RegionOregon),
		Matcher:    match.New(w.Registry, dps.Profiles()),
		Archive:    archive,
		ScanSpaces: certScanSpaces(w),
		ListenAddr: w.Alloc.NextAddr(),
		Region:     netsim.RegionOregon,
	})
}

// certScanSpaces narrows the sweep to small slices of the origin spaces so
// tests stay fast.
func certScanSpaces(w *world.World) []netip.Prefix {
	var out []netip.Prefix
	for _, p := range w.OriginSpaces() {
		out = append(out, netip.PrefixFrom(p.Addr(), 24))
	}
	return out
}

func TestSubdomainVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	f := s.ScanSubdomains(site.Domain().Apex)
	if len(f.Candidates) == 0 {
		t.Fatalf("no candidates: %+v", f)
	}
	if f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("candidate = %v, want origin %v", f.Candidates[0], site.OriginAddr())
	}
}

func TestDNSRecordsVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	f := s.ScanDNSRecords(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("finding = %+v, want origin %v", f, site.OriginAddr())
	}
}

func TestTemporaryExposureVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	// While ON, nothing.
	f := s.ScanTemporaryExposure(site.Domain().Apex)
	if len(f.Candidates) != 0 {
		t.Fatalf("ON site leaked: %+v", f)
	}
	// Paused: the origin shows.
	if err := site.Pause(); err != nil {
		t.Fatal(err)
	}
	s2 := newScanner(t, w, nil) // fresh resolver cache
	f = s2.ScanTemporaryExposure(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("paused finding = %+v, want origin", f)
	}
}

func TestCertificateVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	// Sweep a /24 around the actual origin so the test stays fast.
	origin := site.OriginAddr()
	s.cfg.ScanSpaces = []netip.Prefix{netip.PrefixFrom(origin, 24).Masked()}
	f := s.ScanCertificates(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != origin {
		t.Fatalf("finding = %+v, want origin %v", f, origin)
	}
}

func TestSensitiveFilesVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	f := s.ScanSensitiveFiles(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("finding = %+v, want origin", f)
	}
}

func TestOriginInContentVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	f := s.ScanOriginInContent(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("finding = %+v, want origin", f)
	}
}

func TestOutboundConnectionVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	f := s.ScanOutboundConnection(site.Domain().Apex)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("finding = %+v, want origin", f)
	}
}

func TestIPHistoryVector(t *testing.T) {
	w, site := buildExposedWorld(t)
	archive := pdns.NewArchive()
	// The archive observed the site before it joined the DPS.
	archive.Record(0, site.WWW(), site.OriginAddr())
	s := newScanner(t, w, archive)
	f := s.ScanIPHistory(site.Domain().Apex, 10)
	if len(f.Candidates) != 1 || f.Candidates[0] != site.OriginAddr() {
		t.Fatalf("finding = %+v, want origin", f)
	}
	// Without an archive the vector reports nothing.
	s2 := newScanner(t, w, nil)
	if f := s2.ScanIPHistory(site.Domain().Apex, 10); len(f.Candidates) != 0 {
		t.Fatalf("archiveless finding = %+v", f)
	}
}

func TestScanAllAndHelpers(t *testing.T) {
	w, site := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	s.cfg.ScanSpaces = []netip.Prefix{netip.PrefixFrom(site.OriginAddr(), 24).Masked()}
	findings := s.ScanAll(site.Domain().Apex, 0)
	if len(findings) != 8 {
		t.Fatalf("findings = %d, want 8", len(findings))
	}
	if !Exposed(findings) {
		t.Fatal("fully exposed site reported safe")
	}
	union := CandidateUnion(findings)
	if len(union) != 1 || union[0] != site.OriginAddr() {
		t.Fatalf("union = %v", union)
	}
}

func TestHardenedSiteIsSafe(t *testing.T) {
	// A site without exposure flags leaks through no vector (except
	// temporary exposure when paused, which is off here).
	cfg := world.PaperConfig(150)
	cfg.Seed = 99
	cfg.Exposures = world.ExposureRates{}
	cfg.OriginRestrictedRate = 0
	cfg.DynamicMetaRate = 0
	w := world.New(cfg)
	var site *website.Site
	for _, s := range w.Sites() {
		if key, method, _ := s.Provider(); key == dps.Cloudflare && method == dps.ReroutingNS {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no cloudflare site")
	}
	s := newScanner(t, w, nil)
	s.cfg.ScanSpaces = []netip.Prefix{netip.PrefixFrom(site.OriginAddr(), 26).Masked()}
	findings := s.ScanAll(site.Domain().Apex, 0)
	if Exposed(findings) {
		t.Fatalf("hardened site exposed: %+v", findings)
	}
}

func TestExtractAddrs(t *testing.T) {
	text := "db_host=10.1.2.3\nbackup 10.1.2.3 and 192.168.7.9; not 999.1.1.1 or 1.2.3"
	got := ExtractAddrs(text)
	if len(got) != 2 || got[0] != netip.MustParseAddr("10.1.2.3") || got[1] != netip.MustParseAddr("192.168.7.9") {
		t.Fatalf("ExtractAddrs = %v", got)
	}
	if got := ExtractAddrs("no addresses here"); got != nil {
		t.Fatalf("ExtractAddrs(clean) = %v", got)
	}
}

func TestVectorStrings(t *testing.T) {
	for _, v := range AllVectors() {
		if v.String() == "" {
			t.Fatalf("vector %d has no name", v)
		}
	}
	if len(AllVectors()) != 8 {
		t.Fatal("Table I has eight vectors")
	}
}

// newWorldMatcher builds a matcher over a world's registry.
func newWorldMatcher(w *world.World) *match.Matcher {
	return match.New(w.Registry, dps.Profiles())
}

// Exposed reports whether any finding carries candidates.
func Exposed(findings []Finding) bool {
	for _, f := range findings {
		if len(f.Candidates) > 0 {
			return true
		}
	}
	return false
}
