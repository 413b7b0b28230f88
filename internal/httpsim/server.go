package httpsim

import (
	"fmt"
	"net/netip"
	"sync"

	"rrdps/internal/netsim"
)

// OriginConfig parametrizes an origin web server.
type OriginConfig struct {
	// Page is the landing page served at "/".
	Page Page
	// DynamicMeta, when set, is merged into the page's meta tags on every
	// request; use it to model tags that vary per request (a time stamp,
	// a nonce) and defeat naive HTML comparison.
	DynamicMeta func() map[string]string
	// Files maps extra paths to raw bodies served alongside the landing
	// page — configuration remnants, backup dumps, .git leftovers. The
	// "sensitive files" origin-exposure vector (paper Table I) reads
	// these.
	Files map[string]string
	// Pingback, when non-nil, enables an XML-RPC-pingback-style endpoint:
	// a GET /pingback with an X-Callback header makes the origin open an
	// outbound connection to that address, revealing its own source IP —
	// the "outbound connection" vector of Table I.
	Pingback *Client
}

// Origin is an origin web server attached to the fabric. It is safe for
// concurrent use; its page may be swapped at runtime.
type Origin struct {
	mu      sync.RWMutex
	cfg     OriginConfig
	allowed map[netip.Addr]bool
	hits    uint64
}

// NewOrigin creates an origin server.
func NewOrigin(cfg OriginConfig) *Origin { return &Origin{cfg: cfg} }

var _ netsim.Handler = (*Origin)(nil)

// SetPage swaps the landing page (site redesign, origin reuse).
func (o *Origin) SetPage(p Page) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.Page = p
}

// SetFiles replaces the extra served paths.
func (o *Origin) SetFiles(files map[string]string) {
	copied := make(map[string]string, len(files))
	for k, v := range files {
		copied[k] = v
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.Files = copied
}

// SetPingback installs (or clears, with nil) the outbound pingback client.
func (o *Origin) SetPingback(client *Client) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.Pingback = client
}

// SetDynamicMeta installs (or clears) a per-request meta hook.
func (o *Origin) SetDynamicMeta(fn func() map[string]string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.DynamicMeta = fn
}

// SetAllowedClients restricts which source addresses may fetch content;
// empty means anyone. Other clients receive 403. The paper notes some
// origins are configured to answer only their DPS provider's edges,
// which hides them from direct HTML verification (§IV-C.3).
func (o *Origin) SetAllowedClients(clients []netip.Addr) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.allowed = make(map[netip.Addr]bool, len(clients))
	for _, a := range clients {
		o.allowed[a] = true
	}
}

// Page returns the current landing page.
func (o *Origin) Page() Page {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.cfg.Page
}

// Hits returns how many requests the origin has served (any status).
func (o *Origin) Hits() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.hits
}

// ServeNet implements netsim.Handler.
func (o *Origin) ServeNet(req netsim.Request) ([]byte, error) {
	httpReq, err := DecodeRequest(req.Payload)
	if err != nil {
		return EncodeResponse(Response{StatusCode: 400, Status: "Bad Request"}), nil
	}
	resp := o.respond(req.From, httpReq)
	return EncodeResponse(resp), nil
}

func (o *Origin) respond(from netip.Addr, req Request) Response {
	o.mu.Lock()
	o.hits++
	cfg := o.cfg
	allowedSet := o.allowed
	o.mu.Unlock()

	if len(allowedSet) > 0 && !allowedSet[from] {
		return Response{StatusCode: 403, Body: "forbidden"}
	}
	if req.Method != "GET" {
		return Response{StatusCode: 404, Body: "unsupported"}
	}
	if req.Path == "/pingback" && cfg.Pingback != nil {
		if cb := req.Headers["X-Callback"]; cb != "" {
			if addr, err := netip.ParseAddr(cb); err == nil {
				// Outbound fetch from the origin's own address: the
				// callback target learns it (Table I, outbound vector).
				_, _ = cfg.Pingback.Get(addr, req.Host, "/")
				return Response{StatusCode: 200, Body: "pingback sent"}
			}
		}
		return Response{StatusCode: 400, Status: "Bad Request", Body: "missing callback"}
	}
	if body, ok := cfg.Files[req.Path]; ok {
		return Response{
			StatusCode: 200,
			Headers:    map[string]string{"Content-Type": "text/plain"},
			Body:       body,
		}
	}
	if req.Path != "/" && req.Path != "/index.html" {
		return Response{StatusCode: 404, Body: "not found"}
	}

	page := cfg.Page
	if cfg.DynamicMeta != nil {
		merged := make(map[string]string, len(page.Meta)+2)
		for k, v := range page.Meta {
			merged[k] = v
		}
		for k, v := range cfg.DynamicMeta() {
			merged[k] = v
		}
		page.Meta = merged
	}
	return Response{
		StatusCode: 200,
		Headers:    map[string]string{"Content-Type": "text/html"},
		Body:       page.Render(),
	}
}

// Client fetches pages over the fabric.
type Client struct {
	net    *netsim.Network
	addr   netip.Addr
	region netsim.Region
}

// NewClient creates an HTTP client attached at (addr, region).
func NewClient(net *netsim.Network, addr netip.Addr, region netsim.Region) *Client {
	if net == nil {
		panic("httpsim: NewClient requires a network")
	}
	return &Client{net: net, addr: addr, region: region}
}

// Get issues GET path against the server at addr with the given Host
// header and returns the decoded response.
func (c *Client) Get(server netip.Addr, host, path string) (Response, error) {
	return c.Do(server, Request{Method: "GET", Path: path, Host: host, Headers: map[string]string{}})
}

// Do sends an arbitrary request to the server at addr.
func (c *Client) Do(server netip.Addr, req Request) (Response, error) {
	ep := netsim.Endpoint{Addr: server, Port: netsim.PortHTTP}
	raw, err := c.net.Send(c.addr, c.region, ep, EncodeRequest(req))
	if err != nil {
		return Response{}, fmt.Errorf("%s http://%s%s (host %s): %w", req.Method, server, req.Path, req.Host, err)
	}
	resp, err := DecodeResponse(raw)
	if err != nil {
		return Response{}, fmt.Errorf("%s http://%s%s (host %s): %w", req.Method, server, req.Path, req.Host, err)
	}
	return resp, nil
}
