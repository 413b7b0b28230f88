package vectors

import (
	"sort"

	"rrdps/internal/website"
)

// AuditRow records one audited site's outcome.
type AuditRow struct {
	// ExposedVia lists the vectors whose candidates include the site's
	// true origin address.
	ExposedVia []Vector
}

// Exposed reports whether any vector found the true origin.
func (r AuditRow) Exposed() bool { return len(r.ExposedVia) > 0 }

// AuditResult aggregates an audit over many sites.
type AuditResult struct {
	Audited   int
	Rows      []AuditRow
	PerVector map[Vector]int
}

// ExposedCount returns how many audited sites leak through >=1 vector.
func (r AuditResult) ExposedCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.Exposed() {
			n++
		}
	}
	return n
}

// ExposedRate returns the fraction of audited sites leaking through >=1
// vector (the headline Vissers et al. report >70% for on the live
// Internet).
func (r AuditResult) ExposedRate() float64 {
	if r.Audited == 0 {
		return 0
	}
	return float64(r.ExposedCount()) / float64(r.Audited)
}

// Audit runs every vector against up to max protected sites and grades the
// findings against ground truth (each site's actual origin address).
// beforeDay bounds the IP-history queries.
func (s *Scanner) Audit(sites []*website.Site, beforeDay, max int) AuditResult {
	res := AuditResult{PerVector: make(map[Vector]int)}
	for _, site := range sites {
		if res.Audited >= max {
			break
		}
		if !site.Protected() {
			continue
		}
		res.Audited++
		truth := site.OriginAddr()
		findings := s.ScanAll(site.Domain().Apex, beforeDay)
		var row AuditRow
		for _, f := range findings {
			for _, cand := range f.Candidates {
				if cand == truth {
					row.ExposedVia = append(row.ExposedVia, f.Vector)
					res.PerVector[f.Vector]++
					break
				}
			}
		}
		sort.Slice(row.ExposedVia, func(i, j int) bool { return row.ExposedVia[i] < row.ExposedVia[j] })
		res.Rows = append(res.Rows, row)
	}
	return res
}
