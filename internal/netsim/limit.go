package netsim

import (
	"net/netip"
	"sync"
	"time"
)

// LimitConfig models response rate limiting at an endpoint — the layered
// defense Rizvi et al. describe for the root DNS servers, here installed
// on DPS provider nameservers. Two budgets apply per Window-sized slice
// of simulation time:
//
//   - PerSource caps how many sends from one source address the endpoint
//     admits per window (classic per-source RRL: a scanner hammering one
//     nameserver gets throttled, ordinary resolvers stay under budget).
//   - Capacity caps total admitted sends per window across all sources
//     (resource exhaustion: a reflection flood eats the budget and
//     legitimate queries start timing out).
//
// A rejected send behaves exactly like injected loss: the client observes
// ErrTimeout, which is what real rate limiters do (drop, never answer).
//
// Determinism caveat: unlike FaultConfig, whose decisions are pure
// functions of the send's content, a limiter necessarily counts arrivals —
// which specific sends are admitted therefore depends on arrival order
// when concurrent senders share a window. Aggregate counts (admitted,
// dropped) are order-independent; the identity of the admitted set is
// not. Campaigns that want exact reproducibility under rate limits
// should run their measurement loops serially (Workers 1), which the
// shipped rate-limit scenarios do.
type LimitConfig struct {
	// Window is the counting window of simulation time. Defaults to one
	// hour when either budget is set. The simulated clock is frozen
	// while a measurement pass runs, so one pass always falls inside a
	// single window — retries cannot escape an exhausted budget, exactly
	// like retrying against a real rate limiter within its refill period.
	Window time.Duration
	// PerSource is the per-(source address, window) admission budget.
	// Zero means unlimited.
	PerSource int
	// Capacity is the aggregate per-window admission budget across all
	// sources. Zero means unlimited.
	Capacity int
}

// Enabled reports whether the config limits anything at all.
func (lc LimitConfig) Enabled() bool {
	return lc.PerSource > 0 || lc.Capacity > 0
}

// withDefaults fills the window default.
func (lc LimitConfig) withDefaults() LimitConfig {
	if lc.Enabled() && lc.Window <= 0 {
		lc.Window = time.Hour
	}
	return lc
}

// limitState is one endpoint's live limiter: the config plus the counters
// of the current window. Counters reset lazily when the window index
// advances, so an idle endpoint costs nothing.
type limitState struct {
	cfg LimitConfig

	mu        sync.Mutex // admissions count in arrival order
	window    int64      // window index the counters belong to
	total     int
	perSource map[netip.Addr]int
}

// admit decides one send, counting it when admitted.
func (ls *limitState) admit(from netip.Addr, now time.Time) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	win := now.UnixNano() / int64(ls.cfg.Window)
	if win != ls.window {
		ls.window = win
		ls.total = 0
		if len(ls.perSource) > 0 {
			ls.perSource = make(map[netip.Addr]int)
		}
	}
	if ls.cfg.Capacity > 0 && ls.total >= ls.cfg.Capacity {
		return false
	}
	if ls.cfg.PerSource > 0 {
		if ls.perSource == nil {
			ls.perSource = make(map[netip.Addr]int)
		}
		if ls.perSource[from] >= ls.cfg.PerSource {
			return false
		}
		ls.perSource[from]++
	}
	ls.total++
	return true
}

// SetLimit installs (or, with a zero config, removes) a rate limiter at
// ep. The limiter applies to every subsequent send to the endpoint,
// anycast or unicast; counters start fresh.
func (n *Network) SetLimit(ep Endpoint, cfg LimitConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	rt := st.route.Load().clone()
	rt.limit = nil
	if cfg.Enabled() {
		rt.limit = &limitState{cfg: cfg.withDefaults(), window: -1}
	}
	st.route.Store(rt)
}

// Limit returns the limiter config installed at ep (zero when none).
func (n *Network) Limit(ep Endpoint) LimitConfig {
	if st := n.lookup(ep); st != nil {
		if rt := st.route.Load(); rt != nil && rt.limit != nil {
			return rt.limit.cfg
		}
	}
	return LimitConfig{}
}
