// Package status implements the paper's DPS status classifier (Table III):
// from one domain's collected records, decide whether the domain is ON
// (traffic rerouted through a DPS), OFF (delegated to a DPS but answering
// with a non-DPS address, typically the origin), or NONE.
package status

import (
	"fmt"

	"rrdps/internal/core/collect"
	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
)

// Status is the Table III DPS status.
type Status int

// DPS statuses.
const (
	// StatusNone: no DPS involvement detected.
	StatusNone Status = iota + 1
	// StatusOn: the A record points into a DPS provider's ranges.
	StatusOn
	// StatusOff: the domain is delegated to a DPS (CNAME- or NS-matched)
	// but its A record points outside DPS ranges — typically the origin.
	StatusOff
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "NONE"
	case StatusOn:
		return "ON"
	case StatusOff:
		return "OFF"
	default:
		return fmt.Sprintf("status%d", int(s))
	}
}

// Adoption is the classifier's verdict for one domain on one day.
type Adoption struct {
	Status   Status
	Provider dps.ProviderKey // "" when Status is NONE
	// Rerouting is the inferred mechanism (0 when unknown/NONE).
	Rerouting dps.Rerouting
	// SharedIPSuspect marks the footnote-6 case: an OFF verdict for a
	// provider (Akamai, CDNetworks) whose edges may hold third-party
	// addresses; the paper eliminates these from adoption counts.
	SharedIPSuspect bool
}

// Classifier classifies collected records.
type Classifier struct {
	matcher *match.Matcher
}

// New creates a classifier.
func New(matcher *match.Matcher) *Classifier {
	if matcher == nil {
		panic("status: matcher is required")
	}
	return &Classifier{matcher: matcher}
}

// Classify applies the Table III rules to one record.
func (c *Classifier) Classify(rec collect.Record) Adoption {
	aKey, aOK := c.matcher.MatchAnyA(rec.Addrs)
	cnameKey, cnameOK := c.matcher.MatchAnyCNAME(rec.CNAMEs)
	nsKey, nsOK := c.matcher.MatchAnyNS(rec.NSHosts)

	// ON: A record points at a DPS provider's edge.
	if aOK {
		return Adoption{
			Status:    StatusOn,
			Provider:  aKey,
			Rerouting: c.inferRerouting(aKey, cnameOK, nsOK && nsKey == aKey),
		}
	}

	// OFF: delegated (CNAME-matched with any provider, or NS-matched with
	// an NS-hosting provider, i.e. Cloudflare) but A points elsewhere.
	if cnameOK {
		return Adoption{
			Status:          StatusOff,
			Provider:        cnameKey,
			Rerouting:       dps.ReroutingCNAME,
			SharedIPSuspect: sharedIPProvider(cnameKey),
		}
	}
	if nsOK {
		if profile, ok := c.matcher.Profile(nsKey); ok && profile.Supports(dps.ReroutingNS) {
			return Adoption{
				Status:    StatusOff,
				Provider:  nsKey,
				Rerouting: dps.ReroutingNS,
			}
		}
	}
	return Adoption{Status: StatusNone}
}

// inferRerouting labels the mechanism for an ON domain (§IV-B.2): the
// presence of a matched CNAME means CNAME-based; otherwise NS-matching
// implies NS hosting, and absent both, the customer points its own A
// record (A-based).
func (c *Classifier) inferRerouting(key dps.ProviderKey, cnameMatched, nsMatchedSame bool) dps.Rerouting {
	if cnameMatched {
		return dps.ReroutingCNAME
	}
	profile, ok := c.matcher.Profile(key)
	if !ok {
		return 0
	}
	if nsMatchedSame && profile.Supports(dps.ReroutingNS) {
		return dps.ReroutingNS
	}
	if profile.Supports(dps.ReroutingNS) {
		// Cloudflare without visible CNAME: NS hosting (Fig. 6 logic).
		return dps.ReroutingNS
	}
	if profile.Supports(dps.ReroutingA) {
		return dps.ReroutingA
	}
	return profile.Methods[0]
}

// sharedIPProvider reports the footnote-6 providers whose OFF verdicts are
// suspect because their edges can hold third-party (ISP) addresses.
func sharedIPProvider(key dps.ProviderKey) bool {
	return key == dps.Akamai || key == dps.CDNetworks
}

// RecordSource is a stream of (apex, record) pairs — the shape of a
// snapstore cursor. Next advances and reports whether a record is
// current; Apex and Record read the current position.
type RecordSource interface {
	Next() bool
	Apex() dnsmsg.Name
	Record() collect.Record
}

// ClassifyStream classifies a day's records one at a time as the source
// yields them, and fn receives
// each verdict in stream order. It returns the number of records
// classified. Nothing is retained, so a day's classification costs one
// record of memory at a time regardless of population size.
func (c *Classifier) ClassifyStream(src RecordSource, fn func(apex dnsmsg.Name, rec collect.Record, a Adoption)) int {
	n := 0
	for src.Next() {
		rec := src.Record()
		fn(src.Apex(), rec, c.Classify(rec))
		n++
	}
	return n
}
