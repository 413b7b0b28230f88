package status

import (
	"net/netip"
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

func newClassifier(t *testing.T) *Classifier {
	t.Helper()
	reg := ipspace.NewRegistry()
	reg.AddAS(13335)
	reg.MustAnnounce(13335, netip.MustParsePrefix("104.16.0.0/12"))
	reg.AddAS(19551)
	reg.MustAnnounce(19551, netip.MustParsePrefix("199.83.128.0/21"))
	reg.AddAS(32787)
	reg.MustAnnounce(32787, netip.MustParsePrefix("23.0.0.0/12"))
	reg.AddAS(19324)
	reg.MustAnnounce(19324, netip.MustParsePrefix("199.115.112.0/21"))
	reg.AddAS(64600)
	reg.MustAnnounce(64600, netip.MustParsePrefix("81.0.0.0/8"))
	return New(match.New(reg, dps.Profiles()))
}

func rec(addr string, cnames []string, nsHosts []string) collect.Record {
	r := collect.Record{Domain: alexa.Domain{Rank: 1, Apex: "site.com"}, ResolveOK: true}
	if addr != "" {
		r.Addrs = []netip.Addr{netip.MustParseAddr(addr)}
	}
	for _, c := range cnames {
		r.CNAMEs = append(r.CNAMEs, dnsmsg.MustParseName(c))
	}
	for _, h := range nsHosts {
		r.NSHosts = append(r.NSHosts, dnsmsg.MustParseName(h))
	}
	return r
}

func TestClassifyTableIII(t *testing.T) {
	c := newClassifier(t)
	tests := []struct {
		name      string
		rec       collect.Record
		status    Status
		provider  dps.ProviderKey
		rerouting dps.Rerouting
	}{
		{
			name:      "ON via NS hosting",
			rec:       rec("104.16.2.2", nil, []string{"kate.ns.cloudflare.com"}),
			status:    StatusOn,
			provider:  dps.Cloudflare,
			rerouting: dps.ReroutingNS,
		},
		{
			name:      "ON via CNAME",
			rec:       rec("199.83.128.4", []string{"tok.x.incapdns.net"}, []string{"ns1.webhost.net"}),
			status:    StatusOn,
			provider:  dps.Incapsula,
			rerouting: dps.ReroutingCNAME,
		},
		{
			name:      "ON via A-based (no CNAME, no provider NS)",
			rec:       rec("199.115.112.9", nil, []string{"ns1.webhost.net"}),
			status:    StatusOn,
			provider:  dps.DOSarrest,
			rerouting: dps.ReroutingA,
		},
		{
			name:      "OFF: cloudflare NS but origin A (pause)",
			rec:       rec("81.5.5.5", nil, []string{"rob.ns.cloudflare.com"}),
			status:    StatusOff,
			provider:  dps.Cloudflare,
			rerouting: dps.ReroutingNS,
		},
		{
			name:      "OFF: incapsula CNAME but origin A",
			rec:       rec("81.5.5.5", []string{"tok.x.incapdns.net"}, []string{"ns1.webhost.net"}),
			status:    StatusOff,
			provider:  dps.Incapsula,
			rerouting: dps.ReroutingCNAME,
		},
		{
			name:   "NONE: plain origin",
			rec:    rec("81.5.5.5", nil, []string{"ns1.webhost.net"}),
			status: StatusNone,
		},
		{
			name:   "NONE: no records at all",
			rec:    collect.Record{},
			status: StatusNone,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := c.Classify(tt.rec)
			if got.Status != tt.status {
				t.Fatalf("status = %v, want %v", got.Status, tt.status)
			}
			if got.Provider != tt.provider {
				t.Fatalf("provider = %q, want %q", got.Provider, tt.provider)
			}
			if tt.rerouting != 0 && got.Rerouting != tt.rerouting {
				t.Fatalf("rerouting = %v, want %v", got.Rerouting, tt.rerouting)
			}
		})
	}
}

func TestClassifyAMatchWinsOverDelegation(t *testing.T) {
	// A site that switched from Cloudflare (stale NS substring is gone in
	// practice, but CNAME from the new provider + A of the new provider
	// must attribute to the new provider).
	c := newClassifier(t)
	got := c.Classify(rec("199.83.128.7",
		[]string{"tok.x.incapdns.net"}, []string{"kate.ns.cloudflare.com"}))
	if got.Status != StatusOn || got.Provider != dps.Incapsula {
		t.Fatalf("got %+v, want ON incapsula", got)
	}
}

func TestSharedIPSuspectFlag(t *testing.T) {
	c := newClassifier(t)
	// Akamai CNAME but a non-DPS A record: footnote-6 suspect.
	got := c.Classify(rec("81.9.9.9", []string{"www7.edgekey.akam.net"}, nil))
	if got.Status != StatusOff || !got.SharedIPSuspect {
		t.Fatalf("got %+v, want OFF with SharedIPSuspect", got)
	}
	// Incapsula OFF is not suspect.
	got = c.Classify(rec("81.9.9.9", []string{"tok.x.incapdns.net"}, nil))
	if got.SharedIPSuspect {
		t.Fatalf("incapsula OFF flagged suspect: %+v", got)
	}
}

func TestNonNSHostingProviderNSMatchIsNone(t *testing.T) {
	// NS-matching only signals delegation for providers that actually
	// host zones (Table III: "NS-matched with Cloudflare").
	c := newClassifier(t)
	got := c.Classify(rec("81.9.9.9", nil, []string{"ns1.fastly.net"}))
	if got.Status != StatusNone {
		t.Fatalf("fastly NS match produced %+v, want NONE", got)
	}
}

func TestClassifySnapshot(t *testing.T) {
	c := newClassifier(t)
	a, b := rec("104.16.0.1", nil, []string{"kate.ns.cloudflare.com"}), rec("81.0.0.1", nil, []string{"ns1.webhost.net"})
	a.Domain = alexa.Domain{Rank: 1, Apex: "a.com"}
	b.Domain = alexa.Domain{Rank: 2, Apex: "b.com"}
	store := snapstore.New()
	dw := store.BeginDay(3)
	dw.Put(a)
	dw.Put(b)
	dw.Seal()

	got := make(map[dnsmsg.Name]Adoption)
	c.ClassifyStream(store.Cursor(3), func(apex dnsmsg.Name, _ collect.Record, v Adoption) { got[apex] = v })
	if len(got) != 2 || got["a.com"].Status != StatusOn || got["b.com"].Status != StatusNone {
		t.Fatalf("snapshot classification = %+v", got)
	}
}

func TestStatusString(t *testing.T) {
	if StatusOn.String() != "ON" || StatusOff.String() != "OFF" || StatusNone.String() != "NONE" {
		t.Fatal("status strings wrong")
	}
}

// TestSharedEdgeCustomersAreEliminated is the footnote-6 end-to-end check:
// an Akamai CNAME customer landing on a shared (third-party-IP) edge
// classifies as OFF with SharedIPSuspect, which the pipeline eliminates.
func TestSharedEdgeCustomersAreEliminated(t *testing.T) {
	cfg := world.PaperConfig(400)
	cfg.Seed = 1201
	cfg.SharedEdgesPerProvider = 3 // dense so the sample surely hits one
	// Push everything to Akamai CNAME so shared-edge landings are common.
	cfg.ProviderShares = map[dps.ProviderKey]float64{dps.Akamai: 1}
	cfg.AkamaiAShare = 0
	w := world.New(cfg)

	resolver := w.NewResolver(netsim.RegionOregon)
	classifier := New(match.New(w.Registry, dps.Profiles()))
	suspects, akamaiOn := 0, 0
	for _, s := range w.Sites() {
		key, _, _ := s.Provider()
		if key != dps.Akamai {
			continue
		}
		res, err := resolver.Resolve(s.WWW(), dnsmsg.TypeA)
		if err != nil {
			t.Fatalf("resolve %s: %v", s.WWW(), err)
		}
		rec := collect.Record{
			Domain:    s.Domain(),
			Addrs:     res.Addrs(),
			CNAMEs:    res.CNAMETargets(),
			ResolveOK: true,
			NSOK:      true,
		}
		adoption := classifier.Classify(rec)
		switch {
		case adoption.SharedIPSuspect:
			suspects++
			if adoption.Status != StatusOff {
				t.Fatalf("suspect with status %v", adoption.Status)
			}
		case adoption.Status == StatusOn:
			akamaiOn++
		}
	}
	if suspects == 0 {
		t.Fatal("no shared-edge suspects in a shared-edge-heavy world")
	}
	if akamaiOn == 0 {
		t.Fatal("no normally classified akamai customers")
	}
}

// TestClassifyStreamMatchesSnapshot feeds ClassifyStream from a real
// snapstore cursor and checks it yields exactly the verdicts Classify
// computes for each record the day stored — the contract the streaming
// campaign pipeline rides on.
func TestClassifyStreamMatchesSnapshot(t *testing.T) {
	c := newClassifier(t)

	mk := func(rank int, apex dnsmsg.Name, addr string, cnames, nsHosts []string) collect.Record {
		r := rec(addr, cnames, nsHosts)
		r.Domain = alexa.Domain{Rank: rank, Apex: apex}
		return r
	}
	day := []collect.Record{
		mk(3, "plain.com", "81.0.0.1", nil, []string{"ns1.webhost.net"}),
		mk(1, "cf.com", "104.16.0.1", nil, []string{"kate.ns.cloudflare.com"}),
		mk(2, "inc.com", "199.83.128.4", []string{"tok.x.incapdns.net"}, nil),
		mk(4, "paused.com", "81.5.5.5", nil, []string{"rob.ns.cloudflare.com"}),
	}
	store := snapstore.New()
	dw := store.BeginDay(0)
	want := make(map[dnsmsg.Name]Adoption, len(day))
	for _, r := range day {
		dw.Put(r)
		want[r.Domain.Apex] = c.Classify(r)
	}
	dw.Seal()

	got := make(map[dnsmsg.Name]Adoption, len(want))
	var order []dnsmsg.Name
	n := c.ClassifyStream(store.Cursor(0), func(apex dnsmsg.Name, r collect.Record, a Adoption) {
		if r.Domain.Apex != apex {
			t.Errorf("record for %q carries apex %q", apex, r.Domain.Apex)
		}
		got[apex] = a
		order = append(order, apex)
	})

	if n != len(want) {
		t.Fatalf("ClassifyStream classified %d records, want %d", n, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream verdicts = %+v\nwant %+v", got, want)
	}
	wantOrder := []dnsmsg.Name{"cf.com", "inc.com", "plain.com", "paused.com"}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("stream order = %v, want rank order %v", order, wantOrder)
	}
	if got["cf.com"].Status != StatusOn || got["paused.com"].Status != StatusOff {
		t.Fatalf("spot-check verdicts wrong: %+v", got)
	}
}
