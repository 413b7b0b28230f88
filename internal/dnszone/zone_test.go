package dnszone

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

func newTestZone(t *testing.T) *Zone {
	t.Helper()
	return New("example.com", dnsmsg.SOAData{
		MName:  "ns1.example.com",
		RName:  "admin.example.com",
		Serial: 1,
	})
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestLookupAnswer(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.2")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want answer", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %v", res.Records)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	res := z.Lookup("missing.example.com", dnsmsg.TypeA)
	if res.Kind != KindNXDomain {
		t.Fatalf("Kind = %v, want nxdomain", res.Kind)
	}
	if res.SOA.Type() != dnsmsg.TypeSOA {
		t.Fatal("NXDOMAIN result missing SOA")
	}
}

func TestLookupNoData(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	res := z.Lookup("www.example.com", dnsmsg.TypeMX)
	if res.Kind != KindNoData {
		t.Fatalf("Kind = %v, want nodata", res.Kind)
	}
}

func TestLookupEmptyNonTerminalIsNoData(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("a.b.example.com", time.Minute, addr("10.0.0.1")))
	// "b.example.com" has no records but exists as a node.
	res := z.Lookup("b.example.com", dnsmsg.TypeA)
	if res.Kind != KindNoData {
		t.Fatalf("Kind = %v, want nodata for empty non-terminal", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "edge.example.com"))
	z.MustAdd(dnsmsg.NewA("edge.example.com", time.Minute, addr("10.9.9.9")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindCNAME {
		t.Fatalf("Kind = %v, want cname", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %v, want CNAME + A", res.Records)
	}
	if res.Records[0].Type() != dnsmsg.TypeCNAME || res.Records[1].Type() != dnsmsg.TypeA {
		t.Fatalf("chain order wrong: %v", res.Records)
	}
}

func TestLookupCNAMEChainOutOfZone(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "x.cdn.incapdns.net"))
	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindCNAME || len(res.Records) != 1 {
		t.Fatalf("res = %+v, want bare CNAME", res)
	}
}

func TestLookupCNAMELoopTerminates(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("a.example.com", time.Minute, "b.example.com"))
	z.MustAdd(dnsmsg.NewCNAME("b.example.com", time.Minute, "a.example.com"))
	done := make(chan Result, 1)
	go func() { done <- z.Lookup("a.example.com", dnsmsg.TypeA) }()
	select {
	case res := <-done:
		if res.Kind != KindCNAME {
			t.Fatalf("Kind = %v", res.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CNAME loop lookup did not terminate")
	}
}

func TestLookupQueryForCNAMEItself(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "edge.example.com"))
	res := z.Lookup("www.example.com", dnsmsg.TypeCNAME)
	if res.Kind != KindAnswer || len(res.Records) != 1 {
		t.Fatalf("res = %+v, want direct CNAME answer", res)
	}
}

func TestLookupReferral(t *testing.T) {
	// A TLD-style zone delegating example.com to external nameservers.
	z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "kate.ns.cloudflare.com"))
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "rob.ns.cloudflare.com"))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("Kind = %v, want referral", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("NS records = %v", res.Records)
	}

	// Query exactly at the cut is also a referral.
	res = z.Lookup("example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("at-cut Kind = %v, want referral", res.Kind)
	}
}

func TestLookupReferralWithGlue(t *testing.T) {
	z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.example.com"))
	z.MustAdd(dnsmsg.NewA("ns1.example.com", time.Hour, addr("10.1.1.1")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("Kind = %v", res.Kind)
	}
	if len(res.Glue) != 1 || res.Glue[0].Data.(dnsmsg.AData).Addr != addr("10.1.1.1") {
		t.Fatalf("glue = %v", res.Glue)
	}
}

func TestApexNSIsNotReferral(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.example.com"))
	res := z.Lookup("example.com", dnsmsg.TypeNS)
	if res.Kind != KindAnswer {
		t.Fatalf("apex NS lookup Kind = %v, want answer", res.Kind)
	}
}

func TestLookupOutsideZonePanics(t *testing.T) {
	z := newTestZone(t)
	defer func() {
		if recover() == nil {
			t.Fatal("lookup outside zone did not panic")
		}
	}()
	z.Lookup("other.org", dnsmsg.TypeA)
}

func TestAddOutsideZoneFails(t *testing.T) {
	z := newTestZone(t)
	err := z.Add(dnsmsg.NewA("www.other.org", time.Minute, addr("10.0.0.1")))
	if err == nil {
		t.Fatal("Add outside zone succeeded")
	}
}

func TestSetReplacesAndRemoves(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	if err := z.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.9"))); err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if len(res.Records) != 1 || res.Records[0].Data.(dnsmsg.AData).Addr != addr("10.0.0.9") {
		t.Fatalf("after Set: %v", res.Records)
	}
	if err := z.Set("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if res := z.Lookup("www.example.com", dnsmsg.TypeA); res.Kind != KindNXDomain {
		t.Fatalf("after empty Set: %v, want nxdomain", res.Kind)
	}
}

func TestSetMismatchedRecordFails(t *testing.T) {
	z := newTestZone(t)
	err := z.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("other.example.com", time.Minute, addr("10.0.0.1")))
	if err == nil {
		t.Fatal("Set with mismatched name succeeded")
	}
}

func TestRemoveName(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewMX("www.example.com", time.Minute, 10, "mail.example.com"))
	z.RemoveName("www.example.com")
	if res := z.Lookup("www.example.com", dnsmsg.TypeA); res.Kind != KindNXDomain {
		t.Fatalf("after RemoveName: %v", res.Kind)
	}
}

func TestSerialBumpsOnMutation(t *testing.T) {
	z := newTestZone(t)
	s0 := z.Serial()
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	if z.Serial() <= s0 {
		t.Fatal("serial did not bump on Add")
	}
	s1 := z.Serial()
	z.Remove("www.example.com", dnsmsg.TypeA)
	if z.Serial() <= s1 {
		t.Fatal("serial did not bump on Remove")
	}
	if got := z.SOA().Data.(dnsmsg.SOAData).Serial; got != z.Serial() {
		t.Fatalf("SOA serial %d != zone serial %d", got, z.Serial())
	}
}

// TestEveryMutatorBumpsSerial pins the premise servers memoize answers
// on: a zone whose serial has not moved has not changed, and once the
// zone is watched, an owner whose stamp has not moved has not changed.
// Each mutator, including the no-op forms, must move both.
func TestEveryMutatorBumpsSerial(t *testing.T) {
	www := dnsmsg.Name("www.example.com")
	nope := dnsmsg.Name("nope.example.com")
	a1 := dnsmsg.NewA(www, time.Minute, addr("10.0.0.1"))
	a2 := dnsmsg.NewA(www, time.Minute, addr("10.0.0.2"))
	mutators := []struct {
		name  string
		owner dnsmsg.Name
		do    func(z *Zone) error
	}{
		{"Add", www, func(z *Zone) error { return z.Add(a2) }},
		{"MustAdd", www, func(z *Zone) error { z.MustAdd(a2); return nil }},
		{"Set", www, func(z *Zone) error { return z.Set(www, dnsmsg.TypeA, a2) }},
		{"Set/empty", www, func(z *Zone) error { return z.Set(www, dnsmsg.TypeA) }},
		{"Set/empty-absent", nope, func(z *Zone) error { return z.Set(nope, dnsmsg.TypeA) }},
		{"Remove", www, func(z *Zone) error { z.Remove(www, dnsmsg.TypeA); return nil }},
		{"Remove/absent", www, func(z *Zone) error { z.Remove(www, dnsmsg.TypeMX); return nil }},
		{"RemoveName", www, func(z *Zone) error { z.RemoveName(www); return nil }},
		{"RemoveName/absent", nope, func(z *Zone) error { z.RemoveName(nope); return nil }},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			z := newTestZone(t)
			z.MustAdd(a1)
			before := z.WatchSerial()
			owner, other := Deps{exact: true}, Deps{exact: true}
			owner.add(m.owner)
			other.add("other.example.com")
			if err := m.do(z); err != nil {
				t.Fatal(err)
			}
			if z.Serial() == before {
				t.Fatalf("%s left the serial at %d", m.name, before)
			}
			if got := z.SOA().Data.(dnsmsg.SOAData).Serial; got != z.Serial() {
				t.Fatalf("SOA serial %d != zone serial %d", got, z.Serial())
			}
			if got := z.stamps[nameHash(m.owner)]; got != z.Serial() {
				t.Fatalf("%s stamped %s with %d, want serial %d", m.name, m.owner, got, z.Serial())
			}
			if len(z.stamps) != 1 {
				t.Fatalf("%s left %d stamps, want 1", m.name, len(z.stamps))
			}
			if _, ok := z.Unchanged(before, owner.AppendTo(nil)); ok {
				t.Fatalf("%s: a result that read %s still counts as unchanged", m.name, m.owner)
			}
			if _, ok := z.Unchanged(before, other.AppendTo(nil)); !ok {
				t.Fatalf("%s: a result that read only other.example.com went stale", m.name)
			}
		})
	}
}

// TestLookupDeps pins the dependency rule next to LookupInto: which
// edits leave a result Unchanged and which make it stale.
func TestLookupDeps(t *testing.T) {
	newCom := func() *Zone {
		z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
		z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.cloudflare.com"))
		z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns.elsewhere.net"))
		z.MustAdd(dnsmsg.NewA("ns1.cloudflare.com", time.Hour, addr("10.1.1.1")))
		z.MustAdd(dnsmsg.NewNS("other.com", time.Hour, "ns.other.com"))
		z.MustAdd(dnsmsg.NewA("ns.other.com", time.Hour, addr("10.2.2.2")))
		z.MustAdd(dnsmsg.NewCNAME("www.alias.com", time.Minute, "edge.alias.com"))
		z.MustAdd(dnsmsg.NewCNAME("edge.alias.com", time.Minute, "host.alias.com"))
		z.MustAdd(dnsmsg.NewA("host.alias.com", time.Minute, addr("10.3.3.3")))
		z.MustAdd(dnsmsg.NewA("a.b.plain.com", time.Minute, addr("10.4.4.4")))
		return z
	}
	a := func(name dnsmsg.Name) func(z *Zone) {
		return func(z *Zone) { z.MustAdd(dnsmsg.NewA(name, time.Minute, addr("10.9.9.9"))) }
	}
	queries := []dnsmsg.Name{"www.example.com", "www.alias.com", "a.b.plain.com", "missing.com"}
	edits := []struct {
		name  string
		edit  func(z *Zone)
		stale []dnsmsg.Name // the queries whose results the edit changes
	}{
		{"unrelated owner", a("unrelated.com"), []dnsmsg.Name{"missing.com"}},
		{"other cut's glue", a("ns.other.com"), []dnsmsg.Name{"missing.com"}},
		{"the cut", func(z *Zone) { z.Remove("example.com", dnsmsg.TypeNS) }, []dnsmsg.Name{"www.example.com", "missing.com"}},
		{"sibling glue", a("ns1.cloudflare.com"), []dnsmsg.Name{"www.example.com", "missing.com"}},
		{"deleted glue", func(z *Zone) { z.RemoveName("ns1.cloudflare.com") }, []dnsmsg.Name{"www.example.com", "missing.com"}},
		{"below the cut", a("www.example.com"), []dnsmsg.Name{"missing.com"}},
		{"ancestor", func(z *Zone) { z.MustAdd(dnsmsg.NewNS("b.plain.com", time.Hour, "ns.x.net")) }, []dnsmsg.Name{"a.b.plain.com", "missing.com"}},
		{"CNAME target", a("host.alias.com"), []dnsmsg.Name{"www.alias.com", "missing.com"}},
		{"apex", a("com"), []dnsmsg.Name{"missing.com"}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			z := newCom()
			serial := z.WatchSerial()
			before := make([]Result, len(queries))
			for i, q := range queries {
				before[i] = z.Lookup(q, dnsmsg.TypeA)
			}
			e.edit(z)
			for i, q := range queries {
				_, unchanged := z.Unchanged(serial, before[i].Deps.AppendTo(nil))
				if want := !nameIn(e.stale, q); unchanged != want {
					t.Errorf("%s: Unchanged = %v, want %v", q, unchanged, want)
				}
				if unchanged && !reflect.DeepEqual(z.Lookup(q, dnsmsg.TypeA), before[i]) {
					t.Errorf("%s: counted unchanged, but its result changed", q)
				}
			}
		})
	}
}

// TestStampsBounded: stamps of deleted names are kept until they outnumber
// twice the zone's owners, then forgotten, which makes every older result
// stale.
func TestStampsBounded(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	serial := z.WatchSerial()
	www := z.Lookup("www.example.com", dnsmsg.TypeA)
	for i := 0; i < 3*minStamps; i++ {
		name := dnsmsg.MustParseName(fmt.Sprintf("h%d.example.com", i))
		z.MustAdd(dnsmsg.NewA(name, time.Minute, addr("10.0.0.2")))
		z.RemoveName(name)
		if len(z.stamps) > 2*len(z.rrsets)+minStamps {
			t.Fatalf("after %d names: %d stamps for %d owners", i+1, len(z.stamps), len(z.rrsets))
		}
	}
	if _, ok := z.Unchanged(serial, www.Deps.AppendTo(nil)); ok {
		t.Fatal("a result older than forgotten stamps still counts as unchanged")
	}
	serial = z.Serial()
	www = z.Lookup("www.example.com", dnsmsg.TypeA)
	z.MustAdd(dnsmsg.NewA("mail.example.com", time.Minute, addr("10.0.0.3")))
	if _, ok := z.Unchanged(serial, www.Deps.AppendTo(nil)); !ok {
		t.Fatal("a result newer than the forgotten stamps went stale on an unrelated edit")
	}
}

func TestNamesSorted(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("b.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewA("a.example.com", time.Minute, addr("10.0.0.2")))
	names := z.Names()
	if len(names) != 2 || names[0] != "a.example.com" || names[1] != "b.example.com" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	got := z.Get("www.example.com", dnsmsg.TypeA)
	got[0] = dnsmsg.NewA("www.example.com", time.Minute, addr("99.9.9.9"))
	again := z.Get("www.example.com", dnsmsg.TypeA)
	if again[0].Data.(dnsmsg.AData).Addr != addr("10.0.0.1") {
		t.Fatal("Get leaked internal slice")
	}
}

func TestResultKindString(t *testing.T) {
	kinds := []ResultKind{KindAnswer, KindCNAME, KindReferral, KindNoData, KindNXDomain, ResultKind(0)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty String()", int(k))
		}
	}
}

// TestUnchangedConcurrent checks results against edits made while they
// are checked; run it under -race. Edits to other owners never make a
// referral stale, and lookups racing the edits see consistent zones.
func TestUnchangedConcurrent(t *testing.T) {
	z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.cloudflare.com"))
	z.MustAdd(dnsmsg.NewA("ns1.cloudflare.com", time.Hour, addr("10.1.1.1")))
	serial := z.WatchSerial()
	deps := z.Lookup("www.example.com", dnsmsg.TypeA).Deps.AppendTo(nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch Result
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, ok := z.Unchanged(serial, deps); !ok {
					t.Error("an edit to another delegation made the referral stale")
					return
				}
				z.LookupInto("www.d7.com", dnsmsg.TypeA, &scratch)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		name := dnsmsg.MustParseName(fmt.Sprintf("d%d.com", i%50))
		z.MustAdd(dnsmsg.NewNS(name, time.Hour, "ns.elsewhere.net"))
		if i%3 == 0 {
			z.RemoveName(name)
		}
	}
	close(done)
	wg.Wait()
}

// Lookup runs the authoritative lookup algorithm for (qname, qtype).
// The caller must ensure qname is within the zone; Lookup panics otherwise
// because routing a foreign name here is a server bug, not a client error.
func (z *Zone) Lookup(qname dnsmsg.Name, qtype dnsmsg.Type) Result {
	var res Result
	z.LookupInto(qname, qtype, &res)
	return res
}
