package vectors

import (
	"testing"

	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

func TestAuditFullyExposedWorld(t *testing.T) {
	w, _ := buildExposedWorld(t)
	s := newScanner(t, w, nil)
	s.cfg.ScanSpaces = certScanSpaces(w)

	res := s.Audit(w.Sites(), 0, 10)
	if res.Audited != 10 {
		t.Fatalf("audited = %d", res.Audited)
	}
	if res.ExposedCount() == 0 {
		t.Fatal("fully exposed world produced no exposures")
	}
	if res.ExposedRate() < 0.5 {
		t.Fatalf("exposed rate = %.2f in a fully exposed world", res.ExposedRate())
	}
	// PerVector totals are consistent with rows.
	total := 0
	for _, n := range res.PerVector {
		total += n
	}
	rowTotal := 0
	for _, row := range res.Rows {
		rowTotal += len(row.ExposedVia)
	}
	if total != rowTotal {
		t.Fatalf("PerVector sum %d != rows sum %d", total, rowTotal)
	}
}

func TestAuditHardenedWorld(t *testing.T) {
	cfg := world.PaperConfig(150)
	cfg.Seed = 99
	cfg.Exposures = world.ExposureRates{}
	cfg.OriginRestrictedRate = 0
	cfg.DynamicMetaRate = 0
	w := world.New(cfg)
	s := newScanner(t, w, nil)
	s.cfg.ScanSpaces = nil // no cert sweep needed

	res := s.Audit(w.Sites(), 0, 10)
	if res.ExposedCount() != 0 {
		t.Fatalf("hardened world exposed %d sites: %+v", res.ExposedCount(), res.Rows)
	}
	if res.ExposedRate() != 0 {
		t.Fatalf("rate = %v", res.ExposedRate())
	}
}

func TestAuditSkipsUnprotected(t *testing.T) {
	cfg := world.PaperConfig(100)
	cfg.Seed = 3
	cfg.AdoptionOverallRate = 0
	cfg.AdoptionTopRate = 0
	w := world.New(cfg)
	s := New(Config{
		Network:  w.Net,
		Resolver: w.NewResolver(netsim.RegionOregon),
		HTTP:     w.NewHTTPClient(netsim.RegionOregon),
		Matcher:  newWorldMatcher(w),
		Region:   netsim.RegionOregon,
	})
	res := s.Audit(w.Sites(), 0, 10)
	if res.Audited != 0 {
		t.Fatalf("audited %d unprotected sites", res.Audited)
	}
	if res.ExposedRate() != 0 {
		t.Fatal("rate should be 0 for empty audit")
	}
}
