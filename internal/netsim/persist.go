package netsim

import (
	"fmt"
	"net/netip"
	"sort"
)

// CountersState is the export form of the fabric's accounting: the global
// send/drop totals plus every endpoint's per-PoP served-query counters.
// Campaign checkpoints carry it so a resumed run's per-endpoint
// accounting — the Fig. 7 anycast load spread — matches the uninterrupted
// run's exactly; queries made before a crash would otherwise vanish from
// counters the resumed process never replays.
type CountersState struct {
	Sends uint64 `json:"sends"`
	Drops uint64 `json:"drops"`
	// LimitDrops is the subset of Drops rejected by response rate
	// limiters. Only the cumulative count is carried: the limiters'
	// in-window budgets reset on their next window anyway, and campaign
	// checkpoints land at round boundaries at least a day apart.
	LimitDrops uint64           `json:"limitDrops,omitempty"`
	Endpoints  []EndpointCounts `json:"endpoints,omitempty"`
}

// EndpointCounts is one endpoint's per-PoP served-query counters.
type EndpointCounts struct {
	Addr    netip.Addr        `json:"addr"`
	Port    uint16            `json:"port"`
	Queries map[Region]uint64 `json:"queries"`
}

// ExportCounters snapshots the fabric's accounting. Endpoints that have
// served no queries are omitted, and the slice is sorted by address then
// port, so fabrics in equal states export equal values.
//
// Only endpoints a lookup has reached can hold counters (a query is
// counted after its endpoint is looked up, and RestoreCounters marks
// the endpoints it fills as reached), so the walk covers the published
// table and the pending set, not every endpoint ever registered: a long
// campaign's retired origin addresses never enter either.
func (n *Network) ExportCounters() CountersState {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := CountersState{Sends: n.sends.Load(), Drops: n.drops.Load(), LimitDrops: n.limitDrops.Load()}
	add := func(ep Endpoint, es *endpointState) {
		if q := es.counts(); len(q) > 0 {
			st.Endpoints = append(st.Endpoints, EndpointCounts{Addr: ep.Addr, Port: ep.Port, Queries: q})
		}
	}
	table := *n.table.Load()
	for ep, es := range table {
		add(ep, es)
	}
	for ep, es := range n.pending {
		// A lookup racing a republish can queue an endpoint the new
		// table already holds.
		if _, ok := table[ep]; !ok {
			add(ep, es)
		}
	}
	sort.Slice(st.Endpoints, func(i, j int) bool {
		a, b := st.Endpoints[i], st.Endpoints[j]
		if c := a.Addr.Compare(b.Addr); c != 0 {
			return c < 0
		}
		return a.Port < b.Port
	})
	return st
}

// RestoreCounters replaces the fabric's accounting with st, as exported
// from the interrupted run's fabric. Counters of endpoints absent from st
// are zeroed: restore means "exactly the exported state", not a merge. An
// endpoint in st with no registered handler here is an error — the two
// worlds differ, and inventing the endpoint would mask that.
func (n *Network) RestoreCounters(st CountersState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ec := range st.Endpoints {
		if _, ok := n.endpoints[Endpoint{Addr: ec.Addr, Port: ec.Port}]; !ok {
			return fmt.Errorf("netsim: restore counters: no handler registered at %s:%d", ec.Addr, ec.Port)
		}
		for r := range ec.Queries {
			if !r.indexable() {
				return fmt.Errorf("netsim: restore counters: unknown region %d at %s:%d", r, ec.Addr, ec.Port)
			}
		}
	}
	n.sends.Store(st.Sends)
	n.drops.Store(st.Drops)
	n.limitDrops.Store(st.LimitDrops)
	for _, es := range n.endpoints {
		es.queries.Store(nil)
	}
	for _, ec := range st.Endpoints {
		if len(ec.Queries) == 0 {
			continue
		}
		q := new(popCounts)
		for r, c := range ec.Queries {
			q[r].Store(c)
		}
		ep := Endpoint{Addr: ec.Addr, Port: ec.Port}
		es := n.endpoints[ep]
		es.queries.Store(q)
		// An endpoint that served before the export counts as reached,
		// so ExportCounters finds it before it serves again.
		if _, ok := (*n.table.Load())[ep]; !ok {
			n.pending[ep] = es
		}
	}
	return nil
}
