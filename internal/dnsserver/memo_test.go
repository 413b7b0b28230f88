package dnsserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnszone"
	"rrdps/internal/netsim"
)

// uncached is the reply ServeNetBuf must give to payload: today's decode,
// Respond and encode, with no memo. nil means the query is dropped.
func uncached(t testing.TB, s *Server, payload []byte) []byte {
	t.Helper()
	q, err := dnsmsg.Decode(payload)
	if err != nil || len(q.Questions) == 0 || q.Header.Response {
		return nil
	}
	resp := s.Respond(q)
	if resp == nil {
		return nil
	}
	b, err := dnsmsg.Encode(resp)
	if err != nil {
		t.Fatalf("encoding the uncached answer: %v", err)
	}
	return b
}

// memoWorld is a randomized server for the memo tests: a pool of zones
// it adds, removes and mutates, and names in and around them to ask for.
type memoWorld struct {
	rng     *rand.Rand
	s       *Server
	origins []dnsmsg.Name
	zones   map[dnsmsg.Name]*dnszone.Zone
	names   []dnsmsg.Name
}

func newMemoWorld(seed int64, policy UnknownZonePolicy) *memoWorld {
	w := &memoWorld{
		rng:     rand.New(rand.NewSource(seed)),
		s:       New(Config{Name: "memo", UnknownZone: policy}),
		origins: []dnsmsg.Name{"com", "example.com", "sub.example.com", "other.org", "deep.sub.example.com"},
		zones:   make(map[dnsmsg.Name]*dnszone.Zone),
	}
	for _, o := range w.origins {
		w.names = append(w.names, owners(o)...)
		w.names = append(w.names, o.Child("x").Child("b").Child("c"))
	}
	w.names = append(w.names, "", "org", "unknown.net", "www.unknown.net")
	for _, o := range w.origins[:3] {
		w.addZone(o)
	}
	return w
}

// owners are the names mutate edits in the zone at o: the apex, its
// children, a name below www (an NS host in www's bailiwick when www is
// delegated) and one two labels below x (whose ancestors mutate edits).
func owners(o dnsmsg.Name) []dnsmsg.Name {
	return []dnsmsg.Name{o, o.Child("www"), o.Child("api"), o.Child("ns1"), o.Child("x"),
		o.Child("www").Child("ns"), o.Child("x").Child("b")}
}

func (w *memoWorld) addZone(origin dnsmsg.Name) {
	z := dnszone.New(origin, dnsmsg.SOAData{MName: "ns1." + origin, RName: "admin." + origin, Serial: uint32(w.rng.Intn(5))})
	for i := 0; i < 3; i++ {
		w.mutate(z)
	}
	w.zones[origin] = z
	w.s.AddZone(z)
}

// mutate applies one random change to z with one of its mutators. Its
// delegations name NS hosts in their own bailiwick, in a sibling subtree
// of the zone (glue like ns1.cloudflare.com in com) or outside it, and
// its CNAMEs point mostly elsewhere in the zone.
func (w *memoWorld) mutate(z *dnszone.Zone) {
	o := z.Origin()
	names := owners(o)
	name := names[w.rng.Intn(len(names))]
	addr := netip.AddrFrom4([4]byte{10, 0, byte(w.rng.Intn(4)), byte(w.rng.Intn(4))})
	switch w.rng.Intn(11) {
	case 0, 1:
		z.MustAdd(dnsmsg.NewA(name, time.Minute, addr))
	case 2:
		_ = z.Set(name, dnsmsg.TypeA, dnsmsg.NewA(name, time.Minute, addr))
	case 3, 10:
		target := names[w.rng.Intn(len(names))]
		if w.rng.Intn(4) == 0 {
			target = w.names[w.rng.Intn(len(w.names))]
		}
		if name != o {
			z.MustAdd(dnsmsg.NewCNAME(name, time.Minute, target))
		}
	case 4:
		// A delegation (or, at the apex, the zone's own NS RRset), with
		// glue when the host is in the zone.
		host := []dnsmsg.Name{name.Child("ns"), o.Child("ns1"), o.Child("www").Child("ns"), "ns.unknown.net"}[w.rng.Intn(4)]
		z.MustAdd(dnsmsg.NewNS(name, time.Hour, host))
		if host.IsSubdomainOf(o) {
			z.MustAdd(dnsmsg.NewA(host, time.Hour, addr))
		}
	case 5:
		// A glue-only edit.
		host := []dnsmsg.Name{o.Child("ns1"), o.Child("www").Child("ns")}[w.rng.Intn(2)]
		_ = z.Set(host, dnsmsg.TypeA, dnsmsg.NewA(host, time.Hour, addr))
	case 6:
		// An apex edit.
		z.MustAdd(dnsmsg.NewMX(o, time.Hour, uint16(w.rng.Intn(20)), o.Child("www")))
	case 7:
		z.Remove(name, dnsmsg.Type([]dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeCNAME}[w.rng.Intn(3)]))
	case 8:
		z.RemoveName(name)
	case 9:
		z.RemoveName(o.Child("www").Child("ns"))
	}
}

// step makes one random change to the zone set or a zone's contents.
func (w *memoWorld) step() {
	o := w.origins[w.rng.Intn(len(w.origins))]
	z, hosted := w.zones[o]
	switch {
	case !hosted || w.rng.Intn(4) == 0:
		// Add a zone, or replace a hosted one with a fresh copy.
		w.addZone(o)
	case w.rng.Intn(3) == 0:
		w.s.RemoveZone(o)
		delete(w.zones, o)
	default:
		w.mutate(z)
	}
}

// payload is a random query: a name in or around the zones, sometimes in
// mixed case or class CH, sometimes truncated or response-flagged.
func (w *memoWorld) payload() []byte {
	name := w.names[w.rng.Intn(len(w.names))]
	if w.rng.Intn(5) == 0 && name != "" {
		b := []byte(name)
		b[w.rng.Intn(len(b))] &^= 0x20 // mixed case; dots and digits are unaffected
		name = dnsmsg.Name(b)
	}
	qtype := []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeSOA, dnsmsg.TypeCNAME, dnsmsg.TypeMX}[w.rng.Intn(5)]
	q := dnsmsg.NewQuery(uint16(w.rng.Intn(1<<16)), name, qtype)
	if w.rng.Intn(8) == 0 {
		q.Questions[0].Class = dnsmsg.Class(3)
	}
	q.Header.RecursionDesired = w.rng.Intn(4) != 0
	wire := dnsmsg.MustEncode(q)
	switch w.rng.Intn(20) {
	case 0:
		wire = wire[:w.rng.Intn(len(wire))]
	case 1:
		wire[2] |= 0x80 // QR: a response, which servers drop
	}
	return wire
}

// TestAnswerMemoMatchesRespond runs random sequences of zone mutations,
// AddZone/RemoveZone and queries, and requires every ServeNetBuf reply to
// be byte-equal to the uncached answer to the same query, ID included.
func TestAnswerMemoMatchesRespond(t *testing.T) {
	for _, policy := range []UnknownZonePolicy{PolicyRefuse, PolicyIgnore} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("policy=%d/seed=%d", policy, seed), func(t *testing.T) {
				w := newMemoWorld(seed, policy)
				var dst []byte
				queries := uint64(0)
				hits := 0
				for i := 0; i < 6000; i++ {
					if w.rng.Intn(10) == 0 {
						w.step()
						continue
					}
					p := w.payload()
					want := uncached(t, w.s, p)
					if w.isQuery(p) {
						queries++
					}
					before := w.s.memo.table.Load()
					_, _, wasHit := before.get(hashKey(p))
					got, err := w.s.ServeNetBuf(netsim.Request{Payload: p}, dst[:0])
					if err != nil {
						t.Fatalf("query %x: %v", p, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d, query %x:\n got %x\nwant %x", i, p, got, want)
					}
					if wasHit {
						hits++
					}
					if got != nil {
						dst = got
					}
				}
				if got := w.s.Queries(); got != queries {
					t.Fatalf("Queries() = %d, want %d", got, queries)
				}
				if hits == 0 {
					t.Fatal("no query found its answer in the published table")
				}
			})
		}
	}
}

// isQuery reports whether p is a datagram the server counts: one that
// decodes, has a question and is not a response.
func (w *memoWorld) isQuery(p []byte) bool {
	m, err := dnsmsg.Decode(p)
	return err == nil && len(m.Questions) > 0 && !m.Header.Response
}

func hashKey(p []byte) uint64 {
	if len(p) < 2 {
		return 0
	}
	return memoHash(p[2:])
}

// TestAnswerMemoConcurrent serves overlapping queries from several
// goroutines between rounds of zone changes; run it under -race. Every
// reply must be the uncached answer for the round's zones.
func TestAnswerMemoConcurrent(t *testing.T) {
	for _, policy := range []UnknownZonePolicy{PolicyRefuse, PolicyIgnore} {
		w := newMemoWorld(7, policy)
		payloads := make([][]byte, 64)
		for i := range payloads {
			payloads[i] = w.payload()
		}
		for round := 0; round < 12; round++ {
			for i := 0; i < 3; i++ {
				w.step()
			}
			want := make([][]byte, len(payloads))
			for i, p := range payloads {
				want[i] = uncached(t, w.s, p)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(round*10 + g)))
					var dst []byte
					for n := 0; n < 300; n++ {
						i := rng.Intn(len(payloads))
						got, err := w.s.ServeNetBuf(netsim.Request{Payload: payloads[i]}, dst[:0])
						if err != nil || !bytes.Equal(got, want[i]) {
							errs <- fmt.Errorf("round %d, query %x: got %x (%v), want %x", round, payloads[i], got, err, want[i])
							return
						}
						if got != nil {
							dst = got
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
	}
}

// TestAnswerMemoRecomputes counts the answers a server computes afresh
// after one zone edit: only queries whose answers read the edited owner,
// and negative answers from the edited zone, are recomputed. The rest are
// served from the memo, and every reply is still the uncached answer.
func TestAnswerMemoRecomputes(t *testing.T) {
	newServer := func() *Server {
		s := New(Config{Name: "tld"})
		com := dnszone.New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
		com.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.cloudflare.com"))
		com.MustAdd(dnsmsg.NewA("ns1.cloudflare.com", time.Hour, netip.MustParseAddr("10.1.1.1")))
		com.MustAdd(dnsmsg.NewNS("other.com", time.Hour, "ns.other.com"))
		com.MustAdd(dnsmsg.NewA("ns.other.com", time.Hour, netip.MustParseAddr("10.2.2.2")))
		org := dnszone.New("example.org", dnsmsg.SOAData{MName: "ns1.example.org", RName: "admin.example.org", Serial: 1})
		org.MustAdd(dnsmsg.NewCNAME("www.example.org", time.Minute, "edge.example.org"))
		org.MustAdd(dnsmsg.NewA("edge.example.org", time.Minute, netip.MustParseAddr("10.3.3.3")))
		org.MustAdd(dnsmsg.NewA("a.b.example.org", time.Minute, netip.MustParseAddr("10.4.4.4")))
		s.AddZone(com)
		s.AddZone(org)
		return s
	}
	a := func(zone, name dnsmsg.Name) func(s *Server) {
		return func(s *Server) {
			z, _ := s.Zone(zone)
			z.MustAdd(dnsmsg.NewA(name, time.Minute, netip.MustParseAddr("10.9.9.9")))
		}
	}
	queries := []dnsmsg.Name{"www.example.com", "www.other.com", "www.example.org", "a.b.example.org", "missing.example.org"}
	edits := []struct {
		name  string
		edit  func(s *Server)
		stale []dnsmsg.Name
	}{
		{"unrelated delegation", func(s *Server) {
			z, _ := s.Zone("com")
			z.MustAdd(dnsmsg.NewNS("new.com", time.Hour, "ns.new.com"))
		}, nil},
		{"the cut", func(s *Server) {
			z, _ := s.Zone("com")
			z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns2.cloudflare.com"))
		}, []dnsmsg.Name{"www.example.com"}},
		{"its glue host", a("com", "ns1.cloudflare.com"), []dnsmsg.Name{"www.example.com"}},
		{"an ancestor", func(s *Server) {
			z, _ := s.Zone("example.org")
			z.MustAdd(dnsmsg.NewNS("b.example.org", time.Hour, "ns.elsewhere.net"))
		}, []dnsmsg.Name{"a.b.example.org", "missing.example.org"}},
		{"a CNAME target", a("example.org", "edge.example.org"), []dnsmsg.Name{"www.example.org", "missing.example.org"}},
		{"the SOA-bearing answer's zone", a("example.org", "unrelated.example.org"), []dnsmsg.Name{"missing.example.org"}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			s := newServer()
			wires := make([][]byte, len(queries))
			for i, q := range queries {
				wires[i] = dnsmsg.MustEncode(query(q, dnsmsg.TypeA))
			}
			// serve asks every query once and returns the ones the server
			// computed afresh.
			serve := func() []dnsmsg.Name {
				var computed []dnsmsg.Name
				for i, p := range wires {
					want := uncached(t, s, p)
					before := s.computed.Load()
					got, err := s.ServeNetBuf(netsim.Request{Payload: p}, nil)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: got %x (%v), want %x", queries[i], got, err, want)
					}
					if s.computed.Load() != before {
						computed = append(computed, queries[i])
					}
				}
				return computed
			}
			if got := serve(); !reflect.DeepEqual(got, queries) {
				t.Fatalf("first round computed %v, want every query", got)
			}
			if got := serve(); got != nil {
				t.Fatalf("second round computed %v, want none", got)
			}
			e.edit(s)
			if got := serve(); !reflect.DeepEqual(got, e.stale) {
				t.Fatalf("after the edit the server computed %v, want %v", got, e.stale)
			}
		})
	}
}

// FuzzServeNetBuf: any datagram, served twice (the second time usually
// from the memo), gets the uncached answer both times.
func FuzzServeNetBuf(f *testing.F) {
	f.Add(dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA)))
	f.Add(dnsmsg.MustEncode(query("WWW.Example.COM", dnsmsg.TypeMX)))
	f.Add(dnsmsg.MustEncode(query("www.other.org", dnsmsg.TypeA)))
	f.Add(dnsmsg.MustEncode(query("", dnsmsg.TypeNS)))
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	f.Add([]byte{})
	f.Add(dnsmsg.MustEncode(query("blog.example.com", dnsmsg.TypeA)))
	servers := map[UnknownZonePolicy]*Server{
		PolicyRefuse: newServerWithZone(f, PolicyRefuse),
		PolicyIgnore: newServerWithZone(f, PolicyIgnore),
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		s := servers[PolicyRefuse]
		if len(p)%2 == 1 {
			s = servers[PolicyIgnore]
		}
		want := uncached(t, s, p)
		for i := 0; i < 2; i++ {
			got, err := s.ServeNetBuf(netsim.Request{Payload: p}, nil)
			if err != nil {
				t.Fatalf("serve %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("serve %d of %x:\n got %x\nwant %x", i, p, got, want)
			}
		}
	})
}

// BenchmarkServeNetBuf times one wire query: hit is a repeated query
// answered from the memo (0 allocs/op), miss one whose zone changed since
// its answer was stored, so it is decoded, looked up, encoded and stored.
func BenchmarkServeNetBuf(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := newServerWithZone(b, PolicyRefuse)
		wire := dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA))
		dst, _ := s.ServeNetBuf(netsim.Request{Payload: wire}, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := s.ServeNetBuf(netsim.Request{Payload: wire}, dst[:0])
			if err != nil || len(out) != len(dst) {
				b.Fatal("serve failed")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := newServerWithZone(b, PolicyRefuse)
		z, _ := s.Zone("example.com")
		// Distinct queries, all stale after each serial bump: every one
		// misses, and the bump is amortized over all of them.
		const distinct = 1024
		wires := make([][]byte, distinct)
		for i := range wires {
			name := dnsmsg.Name(fmt.Sprintf("h%d.example.com", i))
			z.MustAdd(dnsmsg.NewA(name, time.Minute, netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})))
			wires[i] = dnsmsg.MustEncode(query(name, dnsmsg.TypeA))
		}
		www := dnsmsg.NewA("www.example.com", time.Minute, netip.MustParseAddr("10.0.0.1"))
		var dst []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%distinct == 0 {
				_ = z.Set("www.example.com", dnsmsg.TypeA, www)
			}
			out, err := s.ServeNetBuf(netsim.Request{Payload: wires[i%distinct]}, dst[:0])
			if err != nil || out == nil {
				b.Fatal("serve failed")
			}
			dst = out
		}
	})
}

// TestServeNetBufHitAllocs pins the memo's contract: a repeated query is
// answered into the caller's buffer without allocating, also when an
// edit to another owner in its zone makes the hit check the stamps.
func TestServeNetBufHitAllocs(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	wire := dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA))
	dst, _ := s.ServeNetBuf(netsim.Request{Payload: wire}, nil)
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = s.ServeNetBuf(netsim.Request{Payload: wire}, dst[:0])
	}); n != 0 {
		t.Fatalf("memo hit: %v allocs, want 0", n)
	}
	z, _ := s.Zone("example.com")
	z.MustAdd(dnsmsg.NewA("other.example.com", time.Minute, netip.MustParseAddr("10.0.0.2")))
	computed := s.computed.Load()
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = s.ServeNetBuf(netsim.Request{Payload: wire}, dst[:0])
	}); n != 0 {
		t.Fatalf("memo hit after an unrelated edit: %v allocs, want 0", n)
	}
	if s.computed.Load() != computed {
		t.Fatal("an unrelated edit made the server recompute the answer")
	}
}

// TestMemoKeyCollision plants one query's answer in the published table
// under another query's hash, as a 64-bit hash collision would: the full
// key comparison must reject it.
func TestMemoKeyCollision(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	a := dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA))
	b := dnsmsg.MustEncode(query("xyz.example.com", dnsmsg.TypeA)) // same length
	if _, err := s.ServeNetBuf(netsim.Request{Payload: a}, nil); err != nil {
		t.Fatal(err)
	}
	// The first answer republishes the empty table, so a's entry is
	// published; plant it under b's hash instead.
	ea, _, ok := s.memo.table.Load().get(memoHash(a[2:]))
	if !ok {
		t.Fatal("first answer not published")
	}
	s.memo.mu.Lock()
	s.memo.pending = map[uint64]memoEntry{}
	s.memo.mu.Unlock()
	planted := *s.memo.table.Load()
	planted.entries = map[uint64]memoEntry{memoHash(b[2:]): ea}
	s.memo.table.Store(&planted)
	want := uncached(t, s, b)
	for i := 0; i < 2; i++ {
		got, err := s.ServeNetBuf(netsim.Request{Payload: b}, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("serve %d: got %x (%v), want %x", i, got, err, want)
		}
	}
}
