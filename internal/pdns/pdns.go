// Package pdns is a passive-DNS archive: a historical record of which
// addresses a hostname has resolved to and when, as collected by sensors
// feeding databases like DNSDB or SecurityTrails.
//
// The "IP history" origin-exposure vector (paper Table I) queries such a
// database: a website that enabled DPS without changing its origin address
// is still findable at the address the archive saw before the migration.
package pdns

import (
	"net/netip"
	"sort"
	"sync"

	"rrdps/internal/dnsmsg"
)

// Observation is one (name, address) association with its observed span.
type Observation struct {
	Name dnsmsg.Name
	Addr netip.Addr
	// FirstDay / LastDay bound the days the association was observed
	// (inclusive).
	FirstDay int
	LastDay  int
}

// Archive stores observations. It is safe for concurrent use.
type Archive struct {
	mu      sync.RWMutex
	entries map[dnsmsg.Name]map[netip.Addr]*Observation
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{entries: make(map[dnsmsg.Name]map[netip.Addr]*Observation)}
}

// Record ingests one observation of name resolving to addrs on day.
func (a *Archive) Record(day int, name dnsmsg.Name, addrs ...netip.Addr) {
	if len(addrs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	byAddr, ok := a.entries[name]
	if !ok {
		byAddr = make(map[netip.Addr]*Observation)
		a.entries[name] = byAddr
	}
	for _, addr := range addrs {
		if obs, ok := byAddr[addr]; ok {
			if day < obs.FirstDay {
				obs.FirstDay = day
			}
			if day > obs.LastDay {
				obs.LastDay = day
			}
			continue
		}
		byAddr[addr] = &Observation{Name: name, Addr: addr, FirstDay: day, LastDay: day}
	}
}

// History returns every observation for name, most recent last (ordered by
// LastDay, then FirstDay, then address).
func (a *Archive) History(name dnsmsg.Name) []Observation {
	a.mu.RLock()
	defer a.mu.RUnlock()
	byAddr := a.entries[name]
	out := make([]Observation, 0, len(byAddr))
	for _, obs := range byAddr {
		out = append(out, *obs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastDay != out[j].LastDay {
			return out[i].LastDay < out[j].LastDay
		}
		if out[i].FirstDay != out[j].FirstDay {
			return out[i].FirstDay < out[j].FirstDay
		}
		return out[i].Addr.Less(out[j].Addr)
	})
	return out
}

// AddrsBefore returns the distinct addresses observed for name strictly
// before day — the "what did this resolve to before the DPS migration"
// query.
func (a *Archive) AddrsBefore(name dnsmsg.Name, day int) []netip.Addr {
	var out []netip.Addr
	for _, obs := range a.History(name) {
		if obs.FirstDay < day {
			out = append(out, obs.Addr)
		}
	}
	return out
}
