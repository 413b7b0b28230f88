package match

import (
	"net/netip"

	"rrdps/internal/dnsmsg"
	"testing"

	"rrdps/internal/dps"
	"rrdps/internal/ipspace"
)

func newMatcher(t *testing.T) (*Matcher, *ipspace.Registry) {
	t.Helper()
	reg := ipspace.NewRegistry()
	reg.AddAS(13335)
	reg.MustAnnounce(13335, netip.MustParsePrefix("104.16.0.0/12"))
	reg.AddAS(19551)
	reg.MustAnnounce(19551, netip.MustParsePrefix("199.83.128.0/21"))
	reg.AddAS(54113)
	reg.MustAnnounce(54113, netip.MustParsePrefix("151.101.0.0/16"))
	reg.AddAS(64600)
	reg.MustAnnounce(64600, netip.MustParsePrefix("81.0.0.0/8"))
	return New(reg, dps.Profiles()), reg
}

func TestMatchA(t *testing.T) {
	m, _ := newMatcher(t)
	tests := []struct {
		addr string
		want dps.ProviderKey
		ok   bool
	}{
		{"104.16.1.1", dps.Cloudflare, true},
		{"199.83.128.9", dps.Incapsula, true},
		{"151.101.1.1", dps.Fastly, true},
		{"81.2.3.4", "", false}, // ISP, not a DPS
		{"9.9.9.9", "", false},  // unannounced
	}
	for _, tt := range tests {
		got, ok := m.MatchA(netip.MustParseAddr(tt.addr))
		if ok != tt.ok || got != tt.want {
			t.Errorf("MatchA(%s) = %q,%v, want %q,%v", tt.addr, got, ok, tt.want, tt.ok)
		}
	}
}

func TestMatchAnyA(t *testing.T) {
	m, _ := newMatcher(t)
	addrs := []netip.Addr{netip.MustParseAddr("81.1.1.1"), netip.MustParseAddr("104.17.0.3")}
	got, ok := m.MatchAnyA(addrs)
	if !ok || got != dps.Cloudflare {
		t.Fatalf("MatchAnyA = %q,%v", got, ok)
	}
	if _, ok := m.MatchAnyA(nil); ok {
		t.Fatal("MatchAnyA(nil) matched")
	}
}

func TestMatchCNAME(t *testing.T) {
	m, _ := newMatcher(t)
	tests := []struct {
		name string
		want dps.ProviderKey
		ok   bool
	}{
		{"abc123.x.incapdns.net", dps.Incapsula, true},
		{"site.cdn.cloudflare.com", dps.Cloudflare, true},
		{"d1234.cloudfront.net", dps.Cloudfront, true},
		{"www7.edgekey.akam.net", dps.Akamai, true},
		{"token.netdna.hwcdn.net", dps.Stackpath, true},
		{"www.example.com", "", false},
	}
	for _, tt := range tests {
		got, ok := m.MatchCNAME(dnsmsg.MustParseName(tt.name))
		if ok != tt.ok || got != tt.want {
			t.Errorf("MatchCNAME(%s) = %q,%v, want %q,%v", tt.name, got, ok, tt.want, tt.ok)
		}
	}
}

func TestMatchNS(t *testing.T) {
	m, _ := newMatcher(t)
	tests := []struct {
		host string
		want dps.ProviderKey
		ok   bool
	}{
		{"kate.ns.cloudflare.com", dps.Cloudflare, true},
		{"ns1.incapdns.net", dps.Incapsula, true},
		{"ns2.cdnetdns.cdngc.net", dps.CDNetworks, true},
		{"ns1.webhost.net", "", false},
	}
	for _, tt := range tests {
		got, ok := m.MatchNS(dnsmsg.MustParseName(tt.host))
		if ok != tt.ok || got != tt.want {
			t.Errorf("MatchNS(%s) = %q,%v, want %q,%v", tt.host, got, ok, tt.want, tt.ok)
		}
	}
}

func TestMatchAnyNSEmpty(t *testing.T) {
	m, _ := newMatcher(t)
	if got, ok := m.MatchAnyNS(nil); ok || got != "" {
		t.Fatalf("MatchAnyNS(nil) = %q, %v", got, ok)
	}
	if got, ok := m.MatchAnyCNAME(nil); ok || got != "" {
		t.Fatalf("MatchAnyCNAME(nil) = %q, %v", got, ok)
	}
}

func TestInProviderRanges(t *testing.T) {
	m, _ := newMatcher(t)
	cf := netip.MustParseAddr("104.16.9.9")
	if !m.InProviderRanges(dps.Cloudflare, cf) {
		t.Fatal("cloudflare addr not matched to cloudflare")
	}
	if m.InProviderRanges(dps.Incapsula, cf) {
		t.Fatal("cloudflare addr matched incapsula")
	}
	if m.InProviderRanges(dps.Cloudflare, netip.MustParseAddr("81.1.1.1")) {
		t.Fatal("ISP addr matched cloudflare")
	}
}

func TestProfileAccessor(t *testing.T) {
	m, _ := newMatcher(t)
	p, ok := m.Profile(dps.Incapsula)
	if !ok || p.Key != dps.Incapsula {
		t.Fatalf("Profile = %+v, %v", p, ok)
	}
	if _, ok := m.Profile("nonesuch"); ok {
		t.Fatal("unknown profile matched")
	}
}
