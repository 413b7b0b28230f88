package htmlverify

import (
	"net/netip"
	"testing"

	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

type fixture struct {
	net      *netsim.Network
	verifier *Verifier
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{net: netsim.New(netsim.Config{Clock: simtime.NewSimulated()})}
	client := httpsim.NewClient(f.net, netip.MustParseAddr("198.51.100.80"), netsim.RegionOregon)
	f.verifier = New(client)
	return f
}

func (f *fixture) serve(addr string, page httpsim.Page, setup func(*httpsim.Origin)) netip.Addr {
	o := httpsim.NewOrigin(httpsim.OriginConfig{Page: page})
	if setup != nil {
		setup(o)
	}
	a := netip.MustParseAddr(addr)
	f.net.Register(netsim.Endpoint{Addr: a, Port: netsim.PortHTTP}, netsim.RegionVirginia, o)
	return a
}

var page = httpsim.Page{Title: "Acme Store", Meta: map[string]string{"description": "acme", "generator": "v2"}}

func TestVerifyMatch(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	cand := f.serve("10.0.0.2", page, nil)
	res := f.verifier.Verify("www.acme.com", ref, cand)
	if !res.Match || !res.RefOK || !res.CandOK {
		t.Fatalf("res = %+v", res)
	}
}

func TestVerifyTitleMismatch(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	other := page
	other.Title = "Different Site"
	cand := f.serve("10.0.0.2", other, nil)
	if res := f.verifier.Verify("www.acme.com", ref, cand); res.Match {
		t.Fatal("mismatched titles verified")
	}
}

func TestVerifyMetaMismatch(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	other := httpsim.Page{Title: page.Title, Meta: map[string]string{"description": "acme", "generator": "v3"}}
	cand := f.serve("10.0.0.2", other, nil)
	if res := f.verifier.Verify("www.acme.com", ref, cand); res.Match {
		t.Fatal("mismatched meta verified")
	}
}

func TestVerifyCandidateUnreachable(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	res := f.verifier.Verify("www.acme.com", ref, netip.MustParseAddr("10.0.0.99"))
	if res.Match || res.CandOK {
		t.Fatalf("res = %+v", res)
	}
	if !res.RefOK {
		t.Fatal("reference fetch should have succeeded")
	}
}

func TestVerifyReferenceUnreachable(t *testing.T) {
	f := newFixture(t)
	cand := f.serve("10.0.0.2", page, nil)
	res := f.verifier.Verify("www.acme.com", netip.MustParseAddr("10.0.0.99"), cand)
	if res.Match || res.RefOK {
		t.Fatalf("res = %+v", res)
	}
}

// TestVerifyDynamicMetaDefeatsComparison models the paper's lower-bound
// caveat: per-request meta tags make a genuine origin fail verification.
func TestVerifyDynamicMetaDefeatsComparison(t *testing.T) {
	f := newFixture(t)
	seq := 0
	ref := f.serve("10.0.0.1", page, func(o *httpsim.Origin) {
		o.SetDynamicMeta(func() map[string]string {
			seq++
			return map[string]string{"nonce": string(rune('a' + seq))}
		})
	})
	// Same origin, queried twice through different addresses — but here we
	// just verify the same server against itself; the nonce differs per
	// request, so verification fails.
	res := f.verifier.Verify("www.acme.com", ref, ref)
	if res.Match {
		t.Fatal("dynamic meta should defeat strict comparison")
	}
}

// TestVerifyACLProtectedOriginFails models the other caveat: an origin that
// only answers its DPS edge returns 403 to the prober.
func TestVerifyACLProtectedOriginFails(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	cand := f.serve("10.0.0.2", page, func(o *httpsim.Origin) {
		o.SetAllowedClients([]netip.Addr{netip.MustParseAddr("104.16.0.1")})
	})
	res := f.verifier.Verify("www.acme.com", ref, cand)
	if res.Match || res.CandOK {
		t.Fatalf("ACL-protected origin verified: %+v", res)
	}
}

// TestVerifyBatchMatchesSerial checks the concurrent batch produces, slot
// for slot, the same verdicts as serial Verify calls — including failure
// slots (unreachable, mismatched).
func TestVerifyBatchMatchesSerial(t *testing.T) {
	f := newFixture(t)
	ref := f.serve("10.0.0.1", page, nil)
	other := page
	other.Title = "Different Site"
	cands := []netip.Addr{
		f.serve("10.0.0.2", page, nil),
		f.serve("10.0.0.3", other, nil),
		netip.MustParseAddr("10.0.0.99"), // unreachable
		f.serve("10.0.0.4", page, nil),
		f.serve("10.0.0.5", other, nil),
		f.serve("10.0.0.6", page, nil),
	}
	want := make([]Result, len(cands))
	for i, c := range cands {
		want[i] = f.verifier.Verify("www.acme.com", ref, c)
	}
	for _, workers := range []int{1, 4, 16} {
		got := f.verifier.VerifyBatch("www.acme.com", ref, cands, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Match != want[i].Match || got[i].RefOK != want[i].RefOK || got[i].CandOK != want[i].CandOK {
				t.Fatalf("workers=%d slot %d: got %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestSamePage(t *testing.T) {
	a := httpsim.Page{Title: "T", Meta: map[string]string{"k": "v"}}
	b := httpsim.Page{Title: "T", Meta: map[string]string{"k": "v"}}
	if !SamePage(a, b) {
		t.Fatal("identical pages differ")
	}
	b.Meta = map[string]string{"k": "v", "extra": "x"}
	if SamePage(a, b) {
		t.Fatal("extra meta matched")
	}
	if !SamePage(httpsim.Page{}, httpsim.Page{}) {
		t.Fatal("empty pages differ")
	}
}
