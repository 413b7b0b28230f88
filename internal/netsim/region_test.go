package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegionString(t *testing.T) {
	for _, r := range AllRegions() {
		if r.String() == "unknown" {
			t.Errorf("region %d has no name", int(r))
		}
	}
	if RegionUnknown.String() != "unknown" {
		t.Errorf("RegionUnknown.String() = %q", RegionUnknown.String())
	}
	if Region(999).String() != "unknown" {
		t.Errorf("out-of-range region String() = %q", Region(999).String())
	}
}

func TestDistanceSymmetric(t *testing.T) {
	regions := AllRegions()
	for _, a := range regions {
		for _, b := range regions {
			if da, db := Distance(a, b), Distance(b, a); da != db {
				t.Errorf("Distance(%v,%v)=%v != Distance(%v,%v)=%v", a, b, da, b, a, db)
			}
		}
	}
}

func TestDistanceZeroToSelf(t *testing.T) {
	for _, r := range AllRegions() {
		if d := Distance(r, r); d != 0 {
			t.Errorf("Distance(%v,%v) = %v, want 0", r, r, d)
		}
	}
}

func TestDistanceUnknownIsMax(t *testing.T) {
	if d := Distance(RegionUnknown, RegionOregon); d != math.MaxFloat64 {
		t.Errorf("Distance(unknown, oregon) = %v, want MaxFloat64", d)
	}
}

// TestNearest: an anycast endpoint routes each sender to its nearest
// PoP; with no PoP registered there is no route.
func TestNearest(t *testing.T) {
	tests := []struct {
		name       string
		from       Region
		candidates []Region
		want       Region
	}{
		{"self present", RegionTokyo, AllRegions(), RegionTokyo},
		{"virginia to oregon over london", RegionVirginia, []Region{RegionOregon, RegionLondon}, RegionOregon},
		{"frankfurt to london", RegionFrankfurt, []Region{RegionOregon, RegionLondon, RegionTokyo}, RegionLondon},
		{"empty candidates", RegionTokyo, nil, RegionUnknown},
		{"mumbai to singapore", RegionMumbai, []Region{RegionSingapore, RegionLondon, RegionOregon}, RegionSingapore},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := answeringPoP(t, tt.from, tt.candidates)
			if tt.want == RegionUnknown {
				if ok {
					t.Fatalf("no PoP registered, yet %v answered", got)
				}
				return
			}
			if !ok || got != tt.want {
				t.Fatalf("sender in %v reached %v, want %v", tt.from, got, tt.want)
			}
		})
	}
}

// answeringPoP registers one anycast PoP per candidate region, sends
// from region from, and reports which PoP answered.
func answeringPoP(t *testing.T, from Region, candidates []Region) (Region, bool) {
	t.Helper()
	n := testNet(t)
	for _, r := range candidates {
		n.RegisterAnycast(testServer, r, echoHandler(r.String()))
	}
	resp, err := n.Send(testClient, from, testServer, nil)
	if err != nil {
		return RegionUnknown, false
	}
	for _, r := range candidates {
		if string(resp) == r.String()+":" {
			return r, true
		}
	}
	t.Fatalf("answer %q from no registered PoP", resp)
	return RegionUnknown, false
}

// Property: a sender always reaches a PoP minimizing Distance.
func TestNearestMinimizesDistanceQuick(t *testing.T) {
	all := AllRegions()
	f := func(fromIdx uint8, mask uint16) bool {
		from := all[int(fromIdx)%len(all)]
		var candidates []Region
		for i, r := range all {
			if mask&(1<<i) != 0 {
				candidates = append(candidates, r)
			}
		}
		got, ok := answeringPoP(t, from, candidates)
		if len(candidates) == 0 {
			return !ok
		}
		best := Distance(from, got)
		for _, c := range candidates {
			if Distance(from, c) < best {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVantageRegionsAreFive(t *testing.T) {
	vr := VantageRegions()
	if len(vr) != 5 {
		t.Fatalf("len(VantageRegions()) = %d, want 5 (paper Fig. 7)", len(vr))
	}
	seen := make(map[Region]bool)
	for _, r := range vr {
		if seen[r] {
			t.Errorf("duplicate vantage region %v", r)
		}
		seen[r] = true
	}
}
