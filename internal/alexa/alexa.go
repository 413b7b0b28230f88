// Package alexa generates a ranked top-N website list, standing in for the
// Alexa top-1M list the paper samples (§IV-A).
//
// The generator is deterministic for a given rand source: the same seed
// always yields the same ranked population, which keeps six-week
// measurement experiments reproducible.
package alexa

import (
	"fmt"
	"math/rand"

	"rrdps/internal/dnsmsg"
)

// Domain is one entry of the ranked list.
type Domain struct {
	// Rank is 1-based; lower is more popular.
	Rank int
	// Apex is the registrable domain, e.g. "zelvano.com".
	Apex dnsmsg.Name
}

// WWW returns the domain's www subdomain, the portal hostname the paper
// measures for every site.
func (d Domain) WWW() dnsmsg.Name { return d.Apex.Child("www") }

var (
	_syllables = []string{
		"ba", "be", "bi", "bo", "bu", "ca", "ce", "co", "da", "de",
		"di", "do", "fa", "fe", "fi", "ga", "go", "ha", "he", "ja",
		"ka", "ki", "la", "le", "li", "lo", "ma", "me", "mi", "mo",
		"na", "ne", "no", "pa", "pe", "po", "ra", "re", "ri", "ro",
		"sa", "se", "si", "so", "ta", "te", "ti", "to", "va", "ve",
		"vi", "vo", "wa", "we", "za", "ze", "zi", "zo",
	}
	_suffixes = []string{"", "", "", "", "hub", "ly", "ify", "zone", "lab", "net", "press", "shop", "media"}
	// _tlds and their sampling weights; .com dominates as in the real list.
	_tlds = []struct {
		tld    string
		weight int
	}{
		{"com", 60}, {"net", 10}, {"org", 10}, {"io", 6}, {"co", 5}, {"info", 5}, {"biz", 4},
	}
	_tldTotal = func() int {
		t := 0
		for _, e := range _tlds {
			t += e.weight
		}
		return t
	}()
)

// TopList generates a ranked list of n unique domains. It panics if n < 0.
func TopList(n int, rng *rand.Rand) []Domain {
	if n < 0 {
		panic(fmt.Sprintf("alexa: TopList(%d)", n))
	}
	if rng == nil {
		panic("alexa: TopList requires rng")
	}
	out := make([]Domain, 0, n)
	seen := make(map[dnsmsg.Name]bool, n)
	for rank := 1; len(out) < n; {
		apex := randomApex(rng)
		if seen[apex] {
			continue
		}
		seen[apex] = true
		out = append(out, Domain{Rank: rank, Apex: apex})
		rank++
	}
	return out
}

func randomApex(rng *rand.Rand) dnsmsg.Name {
	nSyll := 2 + rng.Intn(3)
	label := ""
	for i := 0; i < nSyll; i++ {
		label += _syllables[rng.Intn(len(_syllables))]
	}
	label += _suffixes[rng.Intn(len(_suffixes))]
	// A sprinkle of numbered variants widens the namespace.
	if rng.Intn(10) == 0 {
		label = fmt.Sprintf("%s%d", label, rng.Intn(100))
	}
	tld := pickTLD(rng)
	return dnsmsg.MustParseName(label + "." + tld)
}

func pickTLD(rng *rand.Rand) string {
	v := rng.Intn(_tldTotal)
	for _, e := range _tlds {
		if v < e.weight {
			return e.tld
		}
		v -= e.weight
	}
	return _tlds[0].tld
}

// TLDs returns the set of top-level domains the generator can produce. The
// world builder uses it to provision TLD zones.
func TLDs() []string {
	out := make([]string, len(_tlds))
	for i, e := range _tlds {
		out[i] = e.tld
	}
	return out
}
