// Package edge implements a CDN/DPS edge server: a caching reverse proxy
// that fronts customer origins and optionally scrubs traffic.
//
// Edges are what DPS customers' DNS records point at while protection is ON
// (paper §II-A): clients fetch pages from the edge, the edge fetches from
// the hidden origin, and a scrubbing hook drops traffic classified as
// malicious — the mechanism that absorbs DDoS floods in Fig. 1(a).
package edge

import (
	"net/netip"
	"sync"
	"time"

	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// Scrubber decides whether a request may pass the scrubbing center. A nil
// Scrubber admits everything.
type Scrubber interface {
	// Allow reports whether the request from the given address for host
	// should be served.
	Allow(from netip.Addr, host string) bool
}

// ScrubberFunc adapts a function to Scrubber.
type ScrubberFunc func(from netip.Addr, host string) bool

// Allow implements Scrubber.
func (f ScrubberFunc) Allow(from netip.Addr, host string) bool { return f(from, host) }

var _ Scrubber = ScrubberFunc(nil)

// Config parametrizes an edge server.
type Config struct {
	// Network is the fabric the edge fetches origin content over. Required.
	Network *netsim.Network
	// Addr is the edge's own address (used as HTTP client source, so
	// origin ACLs can allow DPS edges). Required.
	Addr netip.Addr
	// Region locates the edge.
	Region netsim.Region
	// Clock drives content-cache expiry. Required.
	Clock simtime.Clock
	// CacheTTL is how long fetched pages stay cached. Zero disables
	// caching.
	CacheTTL time.Duration
	// Scrubber filters traffic; nil admits everything.
	Scrubber Scrubber
}

type cacheEntry struct {
	resp    httpsim.Response
	expires time.Time
}

// Edge is a caching reverse proxy. It is safe for concurrent use.
type Edge struct {
	client   *httpsim.Client
	addr     netip.Addr
	clock    simtime.Clock
	cacheTTL time.Duration
	scrubber Scrubber

	mu       sync.Mutex
	backends map[string]netip.Addr
	cache    map[string]cacheEntry
}

// New creates an edge server.
func New(cfg Config) *Edge {
	if cfg.Network == nil || cfg.Clock == nil {
		panic("edge: Network and Clock are required")
	}
	return &Edge{
		client:   httpsim.NewClient(cfg.Network, cfg.Addr, cfg.Region),
		addr:     cfg.Addr,
		clock:    cfg.Clock,
		cacheTTL: cfg.CacheTTL,
		scrubber: cfg.Scrubber,
		backends: make(map[string]netip.Addr),
		cache:    make(map[string]cacheEntry),
	}
}

var _ netsim.Handler = (*Edge)(nil)

// Addr returns the edge's address.
func (e *Edge) Addr() netip.Addr { return e.addr }

// SetBackend routes requests for host to the origin at addr.
func (e *Edge) SetBackend(host string, origin netip.Addr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.backends[host] = origin
}

// RemoveBackend stops serving host (customer left the platform).
func (e *Edge) RemoveBackend(host string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.backends, host)
	for key := range e.cache {
		if keyHost(key) == host {
			delete(e.cache, key)
		}
	}
}

func cacheKeyFor(host, path string) string { return host + "\x00" + path }

func keyHost(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i]
		}
	}
	return key
}

// ServeNet implements netsim.Handler.
func (e *Edge) ServeNet(req netsim.Request) ([]byte, error) {
	httpReq, err := httpsim.DecodeRequest(req.Payload)
	if err != nil {
		return httpsim.EncodeResponse(httpsim.Response{StatusCode: 400, Status: "Bad Request"}), nil
	}

	if e.scrubber != nil && !e.scrubber.Allow(req.From, httpReq.Host) {
		// Scrubbed traffic is dropped, not answered: the sender times out.
		return nil, nil
	}

	e.mu.Lock()
	origin, ok := e.backends[httpReq.Host]
	if !ok {
		e.mu.Unlock()
		return httpsim.EncodeResponse(httpsim.Response{StatusCode: 502, Body: "host not configured"}), nil
	}
	now := e.clock.Now()
	key := cacheKeyFor(httpReq.Host, httpReq.Path)
	// Requests carrying application headers (e.g. pingback callbacks) are
	// treated as uncacheable and always hit the origin.
	cacheable := len(httpReq.Headers) == 0
	if entry, hit := e.cache[key]; cacheable && hit && entry.expires.After(now) {
		e.mu.Unlock()
		return httpsim.EncodeResponse(entry.resp), nil
	}
	e.mu.Unlock()

	// Forward the request including its headers (pingback callbacks and
	// similar application headers must survive the proxy hop).
	resp, err := e.client.Do(origin, httpsim.Request{
		Method:  httpReq.Method,
		Path:    httpReq.Path,
		Host:    httpReq.Host,
		Headers: httpReq.Headers,
	})
	if err != nil {
		resp = httpsim.Response{StatusCode: 502, Body: "origin unreachable"}
	}

	if cacheable && err == nil && resp.StatusCode == 200 && e.cacheTTL > 0 {
		e.mu.Lock()
		e.cache[key] = cacheEntry{resp: resp, expires: now.Add(e.cacheTTL)}
		e.mu.Unlock()
	}
	return httpsim.EncodeResponse(resp), nil
}
