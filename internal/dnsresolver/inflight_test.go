package dnsresolver

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// exchangeLog counts the queries a fabric's DNS servers receive, keyed by
// server, name and type.
type exchangeLog struct {
	mu sync.Mutex
	n  map[string]int
}

// wrap returns srv recording every query it receives into l.
func (l *exchangeLog) wrap(t testing.TB, name string, srv netsim.Handler) netsim.Handler {
	return netsim.HandlerFunc(func(req netsim.Request) ([]byte, error) {
		q, err := dnsmsg.Decode(req.Payload)
		if err != nil {
			t.Errorf("%s: undecodable query: %v", name, err)
		} else {
			l.mu.Lock()
			l.n[fmt.Sprintf("%s %s %s", name, q.Question().Name, q.Question().Type)]++
			l.mu.Unlock()
		}
		return srv.ServeNet(req)
	})
}

// providerWorld is a fabric where sites share their nameservers: each
// site's zone is delegated, without glue, to two hosts of one of a few
// providers, named like a DPS fleet's (anna.ns.provN.net), so the first
// sites of a pass race to resolve the same provider hosts, through the
// same provider zone cuts and the same NODATA probes of ns.provN.net.
type providerWorld struct {
	clock    *simtime.Simulated
	resolver *Resolver
	sites    []dnsmsg.Name
	log      *exchangeLog
}

func newProviderWorld(t testing.TB, sites, providers int) *providerWorld {
	t.Helper()
	w := &providerWorld{clock: simtime.NewSimulated(), log: &exchangeLog{n: map[string]int{}}}
	fabric := netsim.New(netsim.Config{Clock: w.clock})
	rootAddr := netip.MustParseAddr("192.0.2.1")
	tldAddr := netip.MustParseAddr("192.0.2.2")
	register := func(name string, addr netip.Addr, zones ...*dnszone.Zone) {
		srv := dnsserver.New(dnsserver.Config{})
		for _, z := range zones {
			srv.AddZone(z)
		}
		fabric.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, netsim.RegionVirginia, w.log.wrap(t, name, srv))
	}

	root := dnszone.New("", soa("a.root-servers.net"))
	root.MustAdd(dnsmsg.NewNS("com", 48*time.Hour, "a.gtld-servers.net"))
	root.MustAdd(dnsmsg.NewNS("net", 48*time.Hour, "a.gtld-servers.net"))
	root.MustAdd(dnsmsg.NewA("a.gtld-servers.net", 48*time.Hour, tldAddr))
	register("root", rootAddr, root)

	com := dnszone.New("com", soa("a.gtld-servers.net"))
	net := dnszone.New("net", soa("a.gtld-servers.net"))
	hosted := make([][]*dnszone.Zone, providers) // each provider's zones
	for p := range hosted {
		prov := dnsmsg.Name(fmt.Sprintf("prov%d.net", p))
		addr := netip.AddrFrom4([4]byte{192, 0, 3, byte(p + 1)})
		net.MustAdd(dnsmsg.NewNS(prov, 24*time.Hour, prov.Child("ns1")))
		net.MustAdd(dnsmsg.NewA(prov.Child("ns1"), 24*time.Hour, addr))
		z := dnszone.New(prov, soa(prov.Child("ns1")))
		z.MustAdd(dnsmsg.NewNS(prov, 24*time.Hour, prov.Child("ns1")))
		z.MustAdd(dnsmsg.NewA(prov.Child("ns1"), 24*time.Hour, addr))
		z.MustAdd(dnsmsg.NewA(prov.Child("edge"), time.Minute, netip.AddrFrom4([4]byte{10, 9, 0, byte(p)})))
		for _, host := range []string{"anna", "bob"} {
			z.MustAdd(dnsmsg.NewA(prov.Child("ns").Child(host), time.Hour, addr))
		}
		hosted[p] = []*dnszone.Zone{z}
	}
	for i := 0; i < sites; i++ {
		site := dnsmsg.Name(fmt.Sprintf("site%d.com", i))
		// Neighbouring sites share a provider, so the workers' first
		// sites of a pass need the same hosts at once.
		p := (i / 2) % providers
		prov := dnsmsg.Name(fmt.Sprintf("prov%d.net", p))
		hosts := []dnsmsg.Name{prov.Child("ns").Child("anna"), prov.Child("ns").Child("bob")}
		z := dnszone.New(site, soa(hosts[0]))
		for _, h := range hosts {
			com.MustAdd(dnsmsg.NewNS(site, 24*time.Hour, h))
			z.MustAdd(dnsmsg.NewNS(site, 24*time.Hour, h))
		}
		if i%3 == 0 {
			z.MustAdd(dnsmsg.NewCNAME(site.Child("www"), time.Hour, prov.Child("edge")))
		} else {
			z.MustAdd(dnsmsg.NewA(site.Child("www"), time.Hour, netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})))
		}
		hosted[p] = append(hosted[p], z)
		w.sites = append(w.sites, site)
	}
	register("tld", tldAddr, com, net)
	for p, zones := range hosted {
		register(fmt.Sprintf("prov%d", p), netip.AddrFrom4([4]byte{192, 0, 3, byte(p + 1)}), zones...)
	}
	w.resolver = New(Config{
		Network: fabric,
		Clock:   w.clock,
		Addr:    netip.MustParseAddr("198.51.100.53"),
		Region:  netsim.RegionOregon,
		Roots:   []netip.Addr{rootAddr},
		Rand:    rand.New(rand.NewSource(5)),
	})
	return w
}

// pass runs one collect-style pass: purge, then the www A and apex NS
// resolutions of every site, fanned out over workers like the collector's
// pool. It returns the pass's exchanges and query accounting.
func (w *providerWorld) pass(t testing.TB, workers int) (map[string]int, QueryStats) {
	w.resolver.Checkpoint()
	w.resolver.PurgeCache()
	w.log.n = map[string]int{}
	w.resolver.Client().stats.reset()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.sites); i += workers {
				if _, err := w.resolver.Resolve(w.sites[i].Child("www"), dnsmsg.TypeA); err != nil {
					t.Errorf("www.%s A: %v", w.sites[i], err)
				}
				if _, err := w.resolver.Resolve(w.sites[i], dnsmsg.TypeNS); err != nil {
					t.Errorf("%s NS: %v", w.sites[i], err)
				}
			}
		}(k)
	}
	wg.Wait()
	return w.log.n, w.resolver.Stats()
}

// TestCollectPassExchangesWorkerIndependent pins the flight table's
// guarantee: a collect pass sends the same multiset of exchanges, and
// accounts the same queries, at 1 and 2 workers. Without in-flight
// de-duplication the 2-worker passes repeat some shared-infrastructure
// lookups (the provider cuts, NS hosts and their NODATA probes), more or
// fewer depending on the interleaving.
func TestCollectPassExchangesWorkerIndependent(t *testing.T) {
	const sites, providers, passes = 120, 3, 40
	serial := newProviderWorld(t, sites, providers)
	want, wantStats := serial.pass(t, 1)
	if len(want) == 0 || wantStats.Queries == 0 {
		t.Fatal("the serial pass sent nothing")
	}
	parallel := newProviderWorld(t, sites, providers)
	for i := 0; i < passes; i++ {
		got, gotStats := parallel.pass(t, 2)
		if !reflect.DeepEqual(got, want) {
			for k, n := range got {
				if want[k] != n {
					t.Errorf("pass %d: %q sent %d times, serially %d", i, k, n, want[k])
				}
			}
			for k, n := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("pass %d: %q sent 0 times, serially %d", i, k, n)
				}
			}
			t.FailNow()
		}
		if gotStats != wantStats {
			t.Fatalf("pass %d: stats %v, serially %v", i, gotStats, wantStats)
		}
	}
}

// TestFlightWaitCycleDoesNotDeadlock resolves names under two zones whose
// nameservers sit, without glue, in each other's zone. Each resolution
// nests into the other zone until the depth limit, so concurrent
// resolutions lead fills the others need: a follower that would close a
// wait cycle must fill solo instead of waiting.
func TestFlightWaitCycleDoesNotDeadlock(t *testing.T) {
	f := newFixture(t)
	for _, z := range []struct{ zone, ns dnsmsg.Name }{{"loopa.com", "ns.loopb.com"}, {"loopb.com", "ns.loopa.com"}} {
		f.tldZone.MustAdd(dnsmsg.NewNS(z.zone, 24*time.Hour, z.ns))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					f.resolver.PurgeCache()
					name := dnsmsg.Name("www.loopa.com")
					if (i+j)%2 == 1 {
						name = "www.loopb.com"
					}
					if _, err := f.resolver.Resolve(name, dnsmsg.TypeA); !errors.Is(err, ErrServFail) {
						t.Errorf("%s: err = %v, want SERVFAIL", name, err)
					}
				}
			}(i)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("resolutions deadlocked on each other's fills")
	}
}
