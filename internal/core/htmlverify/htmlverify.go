// Package htmlverify implements the paper's HTML verification (§IV-C.3):
// fetch a website's landing page twice — once through the address the
// public DNS view returns (IP2, normally a DPS edge) and once from a
// candidate origin address (IP1) — and decide whether both are the same
// host by comparing the page titles and meta tags.
//
// The comparison is deliberately strict (exact title and meta equality):
// dynamically generated meta tags or origins that only answer their DPS
// provider make real origins fail verification, so the verified count is a
// lower bound, exactly as the paper cautions.
package htmlverify

import (
	"fmt"
	"net/netip"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/httpsim"
	"rrdps/internal/obs"
	"rrdps/internal/workpool"
)

// Result is one verification outcome.
type Result struct {
	// Match is true when both fetches succeeded and the pages agree.
	Match bool
	// RefOK / CandOK report whether each fetch returned a 200 page.
	RefOK  bool
	CandOK bool
	// Reference and Candidate are the parsed pages (zero when the fetch
	// failed).
	Reference httpsim.Page
	Candidate httpsim.Page
}

// Verifier compares landing pages.
type Verifier struct {
	client *httpsim.Client
	obs    *obs.Registry
}

// New creates a verifier fetching through client.
func New(client *httpsim.Client) *Verifier {
	if client == nil {
		panic("htmlverify: client is required")
	}
	return &Verifier{client: client}
}

// SetObserver installs a metrics registry. Each comparison's outcome is
// independent of interleaving (pages are static within a pass), so the
// verify.* counters are deterministic. Call between passes; nil
// uninstalls.
func (v *Verifier) SetObserver(r *obs.Registry) {
	v.obs = r
	r.DeclareCounters("verify.comparisons", "verify.matches", "verify.ref_fail", "verify.cand_fail")
}

// Verify fetches host's landing page from refAddr and candAddr and
// compares them.
func (v *Verifier) Verify(host dnsmsg.Name, refAddr, candAddr netip.Addr) Result {
	res := v.verify(host, refAddr, candAddr)
	v.count(res)
	return res
}

func (v *Verifier) verify(host dnsmsg.Name, refAddr, candAddr netip.Addr) Result {
	var res Result
	res.Reference, res.RefOK = v.fetch(host, refAddr)
	if !res.RefOK {
		return res
	}
	res.Candidate, res.CandOK = v.fetch(host, candAddr)
	if !res.CandOK {
		return res
	}
	res.Match = SamePage(res.Reference, res.Candidate)
	return res
}

func (v *Verifier) count(res Result) {
	if v.obs == nil {
		return
	}
	v.obs.Counter("verify.comparisons").Inc()
	if res.Match {
		v.obs.Counter("verify.matches").Inc()
	}
	if !res.RefOK {
		v.obs.Counter("verify.ref_fail").Inc()
	} else if !res.CandOK {
		v.obs.Counter("verify.cand_fail").Inc()
	}
}

// VerifyBatch runs Verify for every candidate address against the same
// public reference view, fanning the verifications over at most workers
// goroutines. Results come back in candAddrs order; each slot equals what
// a serial Verify call would produce (the fetched pages are static within
// a verification pass, and origins with per-request dynamic meta fail the
// strict comparison no matter the interleaving). workers <= 1 degenerates
// to the serial loop.
func (v *Verifier) VerifyBatch(host dnsmsg.Name, refAddr netip.Addr, candAddrs []netip.Addr, workers int) []Result {
	span := v.obs.Tracer().StartSpan("verify", fmt.Sprintf("%s: %d candidates", host, len(candAddrs)))
	span.SetItems(len(candAddrs))
	defer span.End()
	out := make([]Result, len(candAddrs))
	workpool.Run(workers, len(candAddrs), func(i int) {
		out[i] = v.Verify(host, refAddr, candAddrs[i])
	})
	return out
}

func (v *Verifier) fetch(host dnsmsg.Name, addr netip.Addr) (httpsim.Page, bool) {
	resp, err := v.client.Get(addr, string(host), "/")
	if err != nil || resp.StatusCode != 200 {
		return httpsim.Page{}, false
	}
	return httpsim.ParsePage(resp.Body), true
}

// SamePage reports whether two pages agree on title and every meta tag.
func SamePage(a, b httpsim.Page) bool {
	if a.Title != b.Title {
		return false
	}
	if len(a.Meta) != len(b.Meta) {
		return false
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			return false
		}
	}
	return true
}
