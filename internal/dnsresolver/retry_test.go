package dnsresolver

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
)

// addHosts adds n extra A records under example.com so loss tests have a
// population of distinct queries (distinct payloads roll independent fault
// decisions), and returns their names.
func addHosts(t *testing.T, f *fixture, n int) []dnsmsg.Name {
	t.Helper()
	names := make([]dnsmsg.Name, n)
	for i := range names {
		names[i] = dnsmsg.Name(fmt.Sprintf("host-%d.example.com", i))
		f.authZone.MustAdd(dnsmsg.NewA(names[i], time.Hour, netip.MustParseAddr("10.1.0.1")))
	}
	return names
}

// TestRetriesRecoverFromInjectedLoss: under 25% deterministic loss the
// no-retry client loses a visible fraction of queries while the retrying
// client recovers nearly all of them, and the accounting reflects it. The
// retrying pass runs with a registry installed, whose dns.* counters must
// equal its QueryStats field by field: both come from the same fold.
func TestRetriesRecoverFromInjectedLoss(t *testing.T) {
	f := newFixture(t)
	names := addHosts(t, f, 150)
	f.net.SetFaults(netsim.FaultConfig{Seed: 42, LossRate: 0.25})

	run := func(p Policy, reg *obs.Registry) (failed int, stats QueryStats) {
		c := f.resolver.Client()
		c.SetPolicy(p)
		c.SetObserver(reg)
		c.stats.reset()
		for _, name := range names {
			if _, err := c.Exchange(f.authAddr, name, dnsmsg.TypeA); err != nil {
				if !errors.Is(err, netsim.ErrTimeout) {
					t.Fatalf("Exchange(%s): %v", name, err)
				}
				failed++
			}
		}
		return failed, c.Stats()
	}

	noRetryFailed, noRetryStats := run(NoRetryPolicy(), nil)
	if noRetryFailed == 0 {
		t.Fatal("no-retry baseline lost nothing at 25% loss — fault plan inactive?")
	}
	if noRetryStats.Attempts != noRetryStats.Queries {
		t.Fatalf("no-retry attempts %d != queries %d", noRetryStats.Attempts, noRetryStats.Queries)
	}

	reg := obs.NewRegistry()
	retryFailed, retryStats := run(DefaultPolicy(), reg)
	if retryFailed >= noRetryFailed {
		t.Fatalf("retries did not help: %d failed with retries vs %d without", retryFailed, noRetryFailed)
	}
	// P(3 drops) ≈ 1.6%; with 150 queries more than a handful of residual
	// failures means retries are not re-rolling the fault decisions.
	if retryFailed > 10 {
		t.Fatalf("retrying client still failed %d/150 queries", retryFailed)
	}
	if retryStats.Retries == 0 || retryStats.Recovered == 0 {
		t.Fatalf("stats show no retry activity: %+v", retryStats)
	}
	if retryStats.Backoff == 0 {
		t.Fatal("retries accounted no backoff")
	}
	if retryStats.Attempts != retryStats.Queries+retryStats.Retries {
		t.Fatalf("attempts %d != queries %d + retries %d",
			retryStats.Attempts, retryStats.Queries, retryStats.Retries)
	}
	counters := reg.Snapshot().Counters
	for name, want := range map[string]uint64{
		"dns.queries": retryStats.Queries, "dns.attempts": retryStats.Attempts,
		"dns.retries": retryStats.Retries, "dns.hedges": retryStats.Hedges,
		"dns.timeouts": retryStats.Timeouts, "dns.corrupt_replies": retryStats.CorruptReplies,
		"dns.bad_responses": retryStats.BadResponses, "dns.recovered": retryStats.Recovered,
		"dns.failed": retryStats.Failed, "dns.backoff_ns": uint64(retryStats.Backoff),
	} {
		if got := counters[name]; got != want {
			t.Errorf("registry %s = %d, QueryStats has %d", name, got, want)
		}
	}
}

// badIDHandler wraps a handler and mangles the response ID: the reply
// decodes fine but fails validation, which must read as possible spoofing.
type badIDHandler struct{ inner netsim.Handler }

func (h badIDHandler) ServeNet(req netsim.Request) ([]byte, error) {
	resp, err := h.inner.ServeNet(req)
	if err != nil || resp == nil {
		return resp, err
	}
	msg, err := dnsmsg.Decode(resp)
	if err != nil {
		return resp, nil
	}
	msg.Header.ID++
	return dnsmsg.MustEncode(msg), nil
}

// TestBadResponseIsFatalAndNotRetried: an ID mismatch must fail the query
// on the first attempt — retrying past possible spoofing is unsafe.
func TestBadResponseIsFatalAndNotRetried(t *testing.T) {
	f := newFixture(t)
	f.net.Register(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS},
		netsim.RegionLondon, badIDHandler{inner: f.authSrv})

	c := f.resolver.Client()
	c.SetPolicy(DefaultPolicy())
	_, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA)
	if !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err = %v, want ErrBadResponse", err)
	}
	stats := c.Stats()
	if stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no blind retry after validation failure)", stats.Attempts)
	}
	if stats.BadResponses != 1 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 bad response and 1 failure", stats)
	}
}

// flakyCorruptHandler truncates its first reply below a DNS header and
// serves normally afterwards.
type flakyCorruptHandler struct {
	inner netsim.Handler
	calls int
}

func (h *flakyCorruptHandler) ServeNet(req netsim.Request) ([]byte, error) {
	resp, err := h.inner.ServeNet(req)
	h.calls++
	if h.calls == 1 && err == nil && len(resp) > 4 {
		return resp[:4], nil
	}
	return resp, err
}

// TestCorruptReplyIsRetried: a wire-decode failure is transport mangling,
// and a retry recovers the answer.
func TestCorruptReplyIsRetried(t *testing.T) {
	f := newFixture(t)
	f.net.Register(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS},
		netsim.RegionLondon, &flakyCorruptHandler{inner: f.authSrv})

	c := f.resolver.Client()
	c.SetPolicy(DefaultPolicy())
	resp, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("recovered response has no answers")
	}
	stats := c.Stats()
	if stats.CorruptReplies != 1 || stats.Recovered != 1 || stats.Attempts != 2 {
		t.Fatalf("stats = %+v, want 1 corrupt reply recovered on attempt 2", stats)
	}
}

// TestCorruptReplyWithoutRetryFails: the same corruption under
// NoRetryPolicy surfaces as ErrCorruptReply.
func TestCorruptReplyWithoutRetryFails(t *testing.T) {
	f := newFixture(t)
	f.net.Register(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS},
		netsim.RegionLondon, &flakyCorruptHandler{inner: f.authSrv})

	c := f.resolver.Client()
	_, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA)
	if !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("err = %v, want ErrCorruptReply", err)
	}
}

// TestSidelineAndProbeBack walks a nameserver through the health life
// cycle: consecutive all-timeout passes sideline it, queries then avoid
// it, and after its sentence it is probed back in.
func TestSidelineAndProbeBack(t *testing.T) {
	f := newFixture(t)
	p := Policy{MaxAttempts: 1, SidelineAfter: 2, SidelineFor: 2}
	c := f.resolver.Client()
	c.SetPolicy(p)
	authEP := netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS}
	f.net.SetBlackholed(authEP, true)

	// Two all-timeout passes sideline the server.
	for pass := 0; pass < 2; pass++ {
		if _, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA); !errors.Is(err, netsim.ErrTimeout) {
			t.Fatalf("pass %d err = %v, want ErrTimeout", pass, err)
		}
		c.Checkpoint()
	}
	if c.Health().Available(f.authAddr) {
		t.Fatal("server still available after SidelineAfter all-timeout passes")
	}
	if got := c.Health().Sidelined(); len(got) != 1 || got[0] != f.authAddr {
		t.Fatalf("Sidelined() = %v, want [%v]", got, f.authAddr)
	}
	if c.Stats().SidelineEvents != 1 {
		t.Fatalf("SidelineEvents = %d, want 1", c.Stats().SidelineEvents)
	}

	// While sidelined, ExchangeAny prefers the healthy alternate...
	resp, err := c.ExchangeAny([]netip.Addr{f.authAddr, f.tldAddr}, "example.com", dnsmsg.TypeNS)
	if err != nil {
		t.Fatalf("ExchangeAny during sideline: %v", err)
	}
	if len(resp.Authority) == 0 && len(resp.Answers) == 0 {
		t.Fatal("alternate server returned nothing")
	}
	// ...but a query with no other candidate still goes through rather
	// than stranding.
	f.net.SetBlackholed(authEP, false)
	if _, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatalf("Exchange with only a sidelined candidate: %v", err)
	}
	f.net.SetBlackholed(authEP, true)

	// The sentence runs out at the next checkpoints; the server is probed
	// back in.
	c.Checkpoint()
	c.Checkpoint()
	if !c.Health().Available(f.authAddr) {
		t.Fatal("server not probed back in after SidelineFor passes")
	}

	// Healthy again: a success resets the consecutive-bad counter.
	f.net.SetBlackholed(authEP, false)
	if _, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatalf("Exchange after probe-back: %v", err)
	}
	c.Checkpoint()
	if !c.Health().Available(f.authAddr) {
		t.Fatal("recovered server sidelined again despite success")
	}
}

// TestHedgeAccountsAlternateAttempts: with the primary blackholed, a
// hedged ExchangeAny succeeds via the alternate and counts the hedge.
func TestHedgeAccountsAlternateAttempts(t *testing.T) {
	f := newFixture(t)
	c := f.resolver.Client()
	// Pin rotate-from-the-front selection so the blackholed primary is
	// deterministically the first target (P2C could start elsewhere).
	p := DefaultPolicy()
	p.Selection = SelectFirst
	c.SetPolicy(p)
	f.net.SetBlackholed(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS}, true)

	// tldAddr serves example.com's delegation; any answer will do — the
	// point is which server answered.
	if _, err := c.ExchangeAny([]netip.Addr{f.authAddr, f.tldAddr}, "example.com", dnsmsg.TypeNS); err != nil {
		t.Fatalf("ExchangeAny: %v", err)
	}
	stats := c.Stats()
	if stats.Hedges == 0 || stats.Recovered != 1 || stats.Timeouts == 0 {
		t.Fatalf("stats = %+v, want a timed-out primary recovered via hedge", stats)
	}
}

// TestExchangeAnyNoServers covers the empty candidate set.
func TestExchangeAnyNoServers(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Client().ExchangeAny(nil, "www.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

// TestQueryIDsDeterministicAcrossClients: clients built from identically
// seeded worlds derive identical query IDs, the root of the serial ≡
// parallel fault determinism.
func TestQueryIDsDeterministicAcrossClients(t *testing.T) {
	a, b := newFixture(t), newFixture(t)
	for attempt := 1; attempt <= 3; attempt++ {
		ha := queryHash(a.resolver.Client().idSeed, a.authAddr, "www.example.com", dnsmsg.TypeA, attempt)
		hb := queryHash(b.resolver.Client().idSeed, b.authAddr, "www.example.com", dnsmsg.TypeA, attempt)
		if ha != hb {
			t.Fatalf("attempt %d: hashes differ across identically seeded fixtures", attempt)
		}
	}
}

// TestBackoffScheduleShape pins the nominal (jitter-free) schedule.
func TestBackoffScheduleShape(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second}
	for i, w := range want {
		if got := p.Backoff(1, netip.Addr{}, "x.example.com", dnsmsg.TypeA, i+1); got != w {
			t.Fatalf("attempt %d backoff = %v, want %v", i+1, got, w)
		}
	}
}

// FuzzBackoff: no configuration, however absurd, may produce a negative
// delay, exceed the jittered maximum, or panic.
func FuzzBackoff(f *testing.F) {
	f.Add(int64(1), int64(time.Second), int64(time.Minute), 0.25, 3)
	f.Add(int64(-5), int64(-1), int64(-100), -2.0, -1)
	f.Add(int64(0), int64(1)<<62, int64(1)<<62, 0.999, 1<<30)
	f.Add(int64(99), int64(1), int64(1)<<62, 0.5, 64)
	f.Fuzz(func(t *testing.T, seed, base, max int64, jitter float64, attempt int) {
		p := Policy{
			MaxAttempts: 3,
			BaseBackoff: time.Duration(base),
			MaxBackoff:  time.Duration(max),
			Jitter:      jitter,
		}
		got := p.Backoff(seed, netip.MustParseAddr("192.0.2.77"), "fuzz.example.com", dnsmsg.TypeA, attempt)
		if got < 0 {
			t.Fatalf("negative backoff %v for %+v attempt %d", got, p, attempt)
		}
		n := p.normalized()
		bound := time.Duration(float64(n.MaxBackoff)*(1+n.Jitter)) + 1
		if bound > 0 && got > bound {
			t.Fatalf("backoff %v exceeds bound %v for %+v attempt %d", got, bound, p, attempt)
		}
	})
}

// TestTimeoutErrorText pins the timeout path's error: the exact message
// the formatted errors it replaced produced, and errors.Is reaching the
// fabric's sentinel through both the attempt and the fabric layer.
func TestTimeoutErrorText(t *testing.T) {
	f := newFixture(t)
	authEP := netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS}
	f.net.SetBlackholed(authEP, true)
	_, err := f.resolver.Client().Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA)
	const want = "exchange www.example.com A with 192.0.2.3: sending to 192.0.2.3:53: netsim: request timed out"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("errors.Is(%v, netsim.ErrTimeout) = false", err)
	}
	if errors.Is(err, netsim.ErrUnreachable) || errors.Is(err, ErrBadResponse) {
		t.Fatalf("timeout error %v matches an unrelated sentinel", err)
	}
}

// reset zeroes the accumulator.
func (c *statsCounters) reset() {
	for i := range c.v {
		c.v[i].Store(0)
	}
}
