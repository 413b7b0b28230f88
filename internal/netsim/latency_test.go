package netsim

import "testing"

// TestRTTPureFunction: the latency model is a pure function of the two
// regions — no jitter, no per-call state. The resolver's EWMA selection
// depends on this: constant per-(vantage, PoP) RTTs make the pass-minimum
// fold insensitive to duplicate queries, which keeps latency-adaptive
// selection inside the serial≡parallel guarantee.
func TestRTTPureFunction(t *testing.T) {
	for _, from := range AllRegions() {
		for _, pop := range AllRegions() {
			first := rttFor(from, pop)
			for i := 0; i < 3; i++ {
				if got := rttFor(from, pop); got != first {
					t.Fatalf("RTT(%v, %v) varied: %v then %v", from, pop, first, got)
				}
			}
			if first < latencyBase {
				t.Errorf("RTT(%v, %v) = %v below base %v", from, pop, first, latencyBase)
			}
		}
	}
}

// TestRTTOrdinal: nearer PoPs answer faster, a co-located PoP pays only
// the base cost, and an unplaced region is charged the unknown-propagation
// penalty. Ordinal correctness is what latency-adaptive selection actually
// consumes; the absolute values are free parameters.
func TestRTTOrdinal(t *testing.T) {
	if got := rttFor(RegionOregon, RegionOregon); got != latencyBase {
		t.Errorf("co-located RTT = %v, want base %v", got, latencyBase)
	}
	near := rttFor(RegionOregon, RegionVirginia)
	far := rttFor(RegionOregon, RegionLondon)
	if near <= latencyBase {
		t.Errorf("Oregon->Virginia RTT = %v, want above base %v", near, latencyBase)
	}
	if near >= far {
		t.Errorf("Oregon->Virginia RTT %v not below Oregon->London %v", near, far)
	}
	wantUnknown := latencyBase + latencyUnknown
	if got := rttFor(RegionUnknown, RegionOregon); got != wantUnknown {
		t.Errorf("unknown-vantage RTT = %v, want %v", got, wantUnknown)
	}
	if got := rttFor(RegionOregon, RegionUnknown); got != wantUnknown {
		t.Errorf("unknown-PoP RTT = %v, want %v", got, wantUnknown)
	}
}

// TestExchangeReportsModelRTT: Exchange charges exactly the model RTT for
// the PoP that served the request, identically on every call, and a failed
// exchange reports zero RTT (the caller learns nothing about a server that
// never answered).
func TestExchangeReportsModelRTT(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("srv"))

	want := rttFor(RegionOregon, RegionVirginia)
	var buf []byte
	for i := 0; i < 3; i++ {
		resp, rtt, err := n.Exchange(testClient, RegionOregon, testServer, []byte("q"), buf)
		if err != nil {
			t.Fatalf("Exchange: %v", err)
		}
		if rtt != want {
			t.Fatalf("exchange %d RTT = %v, want model RTT %v", i, rtt, want)
		}
		buf = resp[:0]
	}

	n.SetBlackholed(testServer, true)
	if _, rtt, err := n.Exchange(testClient, RegionOregon, testServer, []byte("q"), nil); err == nil {
		t.Fatal("blackholed exchange succeeded")
	} else if rtt != 0 {
		t.Fatalf("failed exchange RTT = %v, want 0", rtt)
	}
}

// TestExchangeAnycastRTT: an anycast endpoint charges the RTT of the PoP
// nearest the vantage — the one that served the request — not a blend.
func TestExchangeAnycastRTT(t *testing.T) {
	n := testNet(t)
	n.RegisterAnycast(testServer, RegionVirginia, echoHandler("us"))
	n.RegisterAnycast(testServer, RegionTokyo, echoHandler("jp"))

	for _, tt := range []struct {
		from Region
		pop  Region
	}{
		{RegionVirginia, RegionVirginia},
		{RegionTokyo, RegionTokyo},
	} {
		_, rtt, err := n.Exchange(testClient, tt.from, testServer, []byte("q"), nil)
		if err != nil {
			t.Fatalf("Exchange from %v: %v", tt.from, err)
		}
		if want := rttFor(tt.from, tt.pop); rtt != want {
			t.Errorf("from %v: RTT = %v, want %v (PoP %v)", tt.from, rtt, want, tt.pop)
		}
	}
}
