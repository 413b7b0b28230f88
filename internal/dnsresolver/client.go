package dnsresolver

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
)

// Client issues single DNS queries to explicit servers over the fabric.
// The residual-resolution scanner uses it to interrogate DPS nameservers
// directly, bypassing normal delegation (the attack of paper §III-B).
//
// The client is the resilience layer of the measurement stack: a Policy
// drives retries with deterministic backoff, a Health tracker sidelines
// nameservers that keep timing out and ranks the rest by EWMA RTT, and
// QueryStats accounts for every attempt. Query IDs are a seeded hash of
// the query identity rather than RNG draws, so two runs issuing the same
// logical queries put byte-identical payloads on the wire regardless of
// goroutine scheduling — the property the fabric's content-hashed fault
// plan and the ParallelMatchesSerial guarantee both build on.
type Client struct {
	net    *netsim.Network
	addr   netip.Addr
	region netsim.Region
	idSeed int64

	// policy is an atomic pointer so the per-query hot path loads it
	// without a mutex round-trip (it changes only between passes).
	policy atomic.Pointer[Policy]

	health *Health
	stats  statsCounters
}

// NewClient creates a client attached at (addr, region) on the fabric.
// The rng seeds query-ID generation (one draw at construction; IDs
// themselves are hash-derived per query) and must be non-nil. The client
// starts with NoRetryPolicy; campaigns opt in via SetPolicy.
func NewClient(net *netsim.Network, addr netip.Addr, region netsim.Region, rng *rand.Rand) *Client {
	if net == nil || rng == nil {
		panic("dnsresolver: NewClient requires network and rng")
	}
	c := &Client{
		net:    net,
		addr:   addr,
		region: region,
		idSeed: rng.Int63(),
		health: NewHealth(),
	}
	p := NoRetryPolicy().normalized()
	c.policy.Store(&p)
	return c
}

// SetPolicy installs the retry policy. Call it between passes, not while
// queries are in flight elsewhere, if deterministic accounting matters.
func (c *Client) SetPolicy(p Policy) {
	p = p.normalized()
	c.policy.Store(&p)
}

// Policy returns the active policy.
func (c *Client) Policy() Policy {
	return *c.policy.Load()
}

// Health returns the client's nameserver health tracker.
func (c *Client) Health() *Health { return c.health }

// Checkpoint folds the current pass's health observations into sideline
// decisions and EWMA-RTT estimates. The measurement loops call it at pass
// boundaries while the fabric is quiescent; within a pass the sideline
// set and the RTT estimates are frozen, which keeps server selection
// independent of query interleaving.
func (c *Client) Checkpoint() { c.health.Checkpoint(c.Policy()) }

// Stats returns a snapshot of the client's resilience accounting.
func (c *Client) Stats() QueryStats { return c.stats.snapshot(c.health) }

// Errors distinguishing why an exchange failed.
var (
	// ErrBadResponse indicates a response that decoded but failed
	// validation (wrong ID or question). This can indicate spoofing, so it
	// is fatal: the client never blindly retries past it.
	ErrBadResponse = errors.New("dnsresolver: response failed validation")
	// ErrCorruptReply indicates a reply that failed wire decoding — a
	// transport-level mangling, retryable like a timeout.
	ErrCorruptReply = errors.New("dnsresolver: reply failed wire decoding")
	// ErrNoServers indicates an exchange was asked of an empty server set.
	ErrNoServers = errors.New("dnsresolver: no servers to query")
)

// exchangeScratch bundles the reusable codec state one in-flight exchange
// needs: the query encoder, a receive buffer the fabric appends responses
// into, and the decoder plus response message it decodes into. The resolver
// keeps one per recursion depth; the public Exchange entry points pool
// them.
type exchangeScratch struct {
	enc  dnsmsg.Encoder
	dec  dnsmsg.Decoder
	resp dnsmsg.Message
	recv []byte
}

var exchangeScratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// Exchange queries (name, qtype) against a single server under the
// client's policy: up to Policy.MaxAttempts attempts with deterministic
// backoff accounting, retrying timeouts and corrupt replies but never
// validation failures.
func (c *Client) Exchange(server netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Message, error) {
	return c.ExchangeAny([]netip.Addr{server}, name, qtype)
}

// ExchangeAny queries (name, qtype) against a candidate server set.
// Sidelined servers are filtered out first (unless that would leave
// none); the policy's Selection strategy picks the starting candidate
// (power-of-two-choices over EWMA RTT by default); attempts then rotate
// through the remaining candidates from there, with a total budget of
// max(Policy.MaxAttempts, candidates) so every candidate is tried at
// least once. An attempt on a server other than the selected primary is a
// hedge in the accounting.
func (c *Client) ExchangeAny(servers []netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Message, error) {
	sc := exchangeScratchPool.Get().(*exchangeScratch)
	var st QueryStats
	resp, err := c.exchangeAny(sc, &st, servers, name, qtype)
	c.stats.fold(&st, nil)
	if resp != nil {
		// The scratch-backed message goes back into the pool; callers get a
		// private copy.
		resp = resp.Clone()
	}
	exchangeScratchPool.Put(sc)
	return resp, err
}

// exchangeAny is ExchangeAny against caller-owned scratch. The returned
// message aliases sc and is valid only until sc's next use. Its accounting
// accumulates in st, which the caller folds into the client's counters
// (once per Resolve on the resolver path), so concurrent workers do not
// write the shared counters on every attempt.
func (c *Client) exchangeAny(sc *exchangeScratch, st *QueryStats, servers []netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Message, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("exchange %s %s: %w", name, qtype, ErrNoServers)
	}
	p := c.policy.Load()
	cands, start := c.health.planExchange(p.Selection, c.idSeed, servers, name, qtype)
	budget := p.MaxAttempts
	if len(cands) > budget {
		budget = len(cands)
	}
	primary := cands[start]

	st.Queries++
	var lastErr error
	for attempt := 1; attempt <= budget; attempt++ {
		server := cands[(start+attempt-1)%len(cands)]
		if attempt > 1 {
			backoff := p.Backoff(c.idSeed, server, name, qtype, attempt)
			st.Retries++
			st.Backoff += backoff
		}
		if server != primary {
			st.Hedges++
		}

		resp, rtt, err := c.attempt(sc, st, server, name, qtype, attempt)
		if err == nil {
			c.health.ObserveSuccess(server)
			c.health.ObserveRTT(server, rtt)
			if attempt > 1 {
				st.Recovered++
			}
			return resp, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, netsim.ErrTimeout):
			st.Timeouts++
			c.health.ObserveTimeout(server)
		case errors.Is(err, ErrCorruptReply):
			st.CorruptReplies++
		default:
			// Fatal: validation failure (possible spoofing), unreachable
			// endpoint, or a handler error. Retrying blindly is either
			// unsafe or pointless.
			if errors.Is(err, ErrBadResponse) {
				st.BadResponses++
			}
			st.Failed++
			return nil, err
		}
	}
	st.Failed++
	return nil, lastErr
}

// attempt performs one wire exchange through sc's reusable buffers. The
// query ID is a hash of the query identity and attempt number:
// deterministic across runs, distinct across a query's attempts (each
// retry re-rolls the fabric's fault decisions). The returned message
// aliases sc.
func (c *Client) attempt(sc *exchangeScratch, st *QueryStats, server netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type, attempt int) (*dnsmsg.Message, time.Duration, error) {
	st.Attempts++
	id := uint16(queryHash(c.idSeed, server, name, qtype, attempt))
	wire := sc.enc.EncodeQuery(id, name, qtype)
	ep := netsim.Endpoint{Addr: server, Port: netsim.PortDNS}
	raw, rtt, err := c.net.Exchange(c.addr, c.region, ep, wire, sc.recv)
	if raw != nil {
		// Exchange appends into sc.recv (or a growth of it); keep whatever
		// backing array came back for the next attempt.
		sc.recv = raw[:0]
	}
	if err != nil {
		return nil, 0, &exchangeError{name: name, qtype: qtype, server: server, err: err}
	}
	sent := dnsmsg.Question{Name: name, Type: qtype, Class: dnsmsg.ClassIN}
	if err := sc.dec.DecodeReplyInto(raw, &sc.resp, sent); err != nil {
		return nil, 0, fmt.Errorf("exchange %s %s with %s: %w: %v", name, qtype, server, ErrCorruptReply, err)
	}
	resp := &sc.resp
	if resp.Header.ID != id || !resp.Header.Response {
		return nil, 0, fmt.Errorf("exchange %s %s with %s: %w", name, qtype, server, ErrBadResponse)
	}
	if q := resp.Question(); q.Name != name || q.Type != qtype {
		return nil, 0, fmt.Errorf("exchange %s %s with %s: question mismatch: %w", name, qtype, server, ErrBadResponse)
	}
	return resp, rtt, nil
}

// exchangeError is a failed attempt's fabric error in the attempt's
// context. It is formatted only when read: on a lossy fabric most failed
// attempts are timeouts the retry loop matches with errors.Is and drops.
type exchangeError struct {
	name   dnsmsg.Name
	qtype  dnsmsg.Type
	server netip.Addr
	err    error
}

func (e *exchangeError) Error() string {
	return fmt.Sprintf("exchange %s %s with %s: %v", e.name, e.qtype, e.server, e.err)
}

func (e *exchangeError) Unwrap() error { return e.err }
