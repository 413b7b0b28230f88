package dnsresolver

import (
	"fmt"
	"net/netip"
	"time"

	"rrdps/internal/dethash"
	"rrdps/internal/dnsmsg"
)

// Policy configures the client's resilience to a lossy fabric: how many
// times a query is attempted, how backoff between attempts grows, whether
// a timed-out query is hedged to an alternate nameserver, and when a
// nameserver that keeps timing out is sidelined.
//
// Everything a Policy decides is deterministic: backoff jitter comes from
// a seeded hash of the query identity rather than a shared RNG, so a
// campaign's retry schedule is a pure function of (world seed, policy) —
// identical between serial and parallel runs.
type Policy struct {
	// MaxAttempts caps the attempts of one logical query (including the
	// first). The cap applies per query, not per server: when several
	// candidate servers are available, attempts rotate across them and the
	// total budget is max(MaxAttempts, number of candidates), so every
	// candidate is tried at least once (the pre-retry behaviour).
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles each
	// further attempt up to MaxBackoff. The simulation does not advance
	// its clock mid-pass, so backoff is accounted (QueryStats.Backoff)
	// rather than slept — the schedule is what the determinism guarantee
	// covers.
	BaseBackoff time.Duration
	// MaxBackoff clamps the exponential growth.
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomized (deterministically,
	// from the query identity) around the nominal value, in [0,1).
	Jitter float64
	// Hedge enables hedged queries: when the first attempt times out and
	// an alternate nameserver is available, the next attempt goes to the
	// alternate instead of re-asking the same server after backoff.
	Hedge bool
	// SidelineAfter is the number of consecutive checkpointed passes in
	// which a server only timed out (and never answered) before the health
	// tracker sidelines it. Zero disables sidelining.
	SidelineAfter int
	// SidelineFor is how many checkpointed passes a sidelined server sits
	// out before it is probed back in.
	SidelineFor int
	// Selection picks the first candidate of a multi-server exchange.
	Selection Selection
}

// Selection is a nameserver-selection strategy for multi-candidate
// exchanges.
type Selection int

// Selection strategies.
const (
	// SelectFirst always starts at the first candidate — the historical
	// rotate-from-the-front behaviour.
	SelectFirst Selection = iota
	// SelectP2C starts at the winner of a power-of-two-choices draw over
	// the health tracker's EWMA-RTT estimates (the dnscrypt-proxy load
	// balancing strategy, made seed-deterministic). Retries still rotate
	// through the other candidates from the winner onward.
	SelectP2C
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case SelectP2C:
		return "p2c"
	default:
		return "first"
	}
}

// DefaultPolicy is the retry policy the measurement campaigns use unless
// configured otherwise: three attempts, 200ms base backoff doubling to 2s,
// 25% jitter, hedging on, sideline after 4 all-timeout passes for 2.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:   3,
		BaseBackoff:   200 * time.Millisecond,
		MaxBackoff:    2 * time.Second,
		Jitter:        0.25,
		Hedge:         true,
		SidelineAfter: 4,
		SidelineFor:   2,
		Selection:     SelectP2C,
	}
}

// NoRetryPolicy performs exactly one attempt per candidate server with no
// hedging and no sidelining — the behaviour of the pre-resilience client,
// and the default for a bare NewClient. It keeps the default selection
// strategy: with fresh health state both policies then pick the same
// primary for the same query, so a retrying run's attempt schedule starts
// with exactly the attempts a no-retry run makes (retries only add
// attempts, never reorder the shared prefix).
func NoRetryPolicy() Policy {
	return Policy{MaxAttempts: 1, Selection: SelectP2C}
}

// normalized fills zero fields with usable values and clamps nonsense.
func (p Policy) normalized() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff < 0 {
		p.BaseBackoff = 0
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0
	}
	if p.SidelineAfter < 0 {
		p.SidelineAfter = 0
	}
	if p.SidelineFor < 1 {
		p.SidelineFor = 1
	}
	return p
}

// String renders the policy for health summaries.
func (p Policy) String() string {
	return fmt.Sprintf("attempts=%d backoff=%v..%v jitter=%.0f%% hedge=%v sideline=%d/%d select=%s",
		p.MaxAttempts, p.BaseBackoff, p.MaxBackoff, p.Jitter*100, p.Hedge, p.SidelineAfter, p.SidelineFor, p.Selection)
}

// Backoff returns the deterministic delay scheduled before attempt
// `attempt` (1-based; attempt 1 has no delay) of a query for (name,
// qtype) against server. The nominal value is BaseBackoff doubled per
// prior retry and clamped to MaxBackoff; Jitter then scales it by a
// factor in [1-Jitter, 1+Jitter) derived from a seeded hash of the query
// identity. The result is never negative and never exceeds
// MaxBackoff*(1+Jitter).
func (p Policy) Backoff(seed int64, server netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type, attempt int) time.Duration {
	p = p.normalized()
	if attempt <= 1 || p.BaseBackoff == 0 {
		return 0
	}
	d := p.BaseBackoff
	// Shift without overflow: past ~2^40 doublings are academic, clamp
	// via comparison instead of shifting blindly.
	for i := 2; i < attempt; i++ {
		if d >= p.MaxBackoff/2+1 {
			d = p.MaxBackoff
			break
		}
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Keep the float jitter math clear of int64 overflow for absurd
	// configured maxima (the fuzz target feeds them).
	const ceil = time.Duration(1) << 61
	if d > ceil {
		d = ceil
	}
	if p.Jitter > 0 {
		u := dethash.Unit(queryHash(seed, server, name, qtype, attempt)) // [0,1)
		factor := 1 + p.Jitter*(2*u-1)                                   // [1-J, 1+J)
		d = time.Duration(float64(d) * factor)
		if d < 0 {
			d = 0
		}
	}
	return d
}

// queryHash folds a query identity into 64 bits: FNV-1a over the fields,
// finalized with the splitmix64 avalanche so the trailing fields (qtype,
// attempt) reach the high bits dethash.Unit keeps. It also derives the
// deterministic query IDs: two runs issuing the same logical query get
// byte-identical wire payloads, which is what makes the fabric's
// content-hashed fault plan (and therefore the whole retry schedule)
// independent of scheduling order.
func queryHash(seed int64, server netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type, attempt int) uint64 {
	h := dethash.Word(dethash.Offset, uint64(seed))
	if server.IsValid() {
		for _, b := range server.As4() {
			h = dethash.Byte(h, b)
		}
	}
	for i := 0; i < len(name); i++ {
		h = dethash.Byte(h, name[i])
	}
	h = dethash.Word(h, uint64(qtype))
	h = dethash.Word(h, uint64(attempt))
	return dethash.Mix(h)
}
