package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/exposure"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/obs"
)

// Config wires a Server.
type Config struct {
	// Source supplies the epochs served. Required.
	Source *CheckpointSource
	// APIKeys are the accepted client keys; empty disables auth.
	APIKeys []string
	// RatePerSec / Burst shape the per-key token bucket; RatePerSec <= 0
	// disables rate limiting.
	RatePerSec float64
	Burst      int
	// Registry receives request metrics; nil allocates a private one.
	Registry *obs.Registry
	// Now is the clock, injectable so the rate-limit tests can drive time
	// deterministically. Nil means time.Now.
	Now func() time.Time

	now func() time.Time
}

// Server is the lookup service: the route handlers plus their middleware
// state. Build one with New, mount Handler (or call ListenAndServe).
type Server struct {
	cfg       Config
	reg       *obs.Registry
	hit, miss *obs.Counter // serve.domain.hit/miss, resolved once
	limiter   *buckets
	handler   http.Handler
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Source == nil {
		panic("serve: Config.Source is required")
	}
	cfg.now = cfg.Now
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, reg: reg,
		hit: reg.VolatileCounter("serve.domain.hit"), miss: reg.VolatileCounter("serve.domain.miss")}
	if cfg.RatePerSec > 0 {
		burst := cfg.Burst
		if burst < 1 {
			burst = 1
		}
		s.limiter = newBuckets(cfg.RatePerSec, burst, cfg.now)
	}

	mux := http.NewServeMux()
	// Liveness stays outside auth and rate limiting: an orchestrator's
	// probe must not consume a client's budget or need its credentials.
	mux.Handle("GET /healthz", s.measure("healthz", http.HandlerFunc(s.handleHealthz)))
	protected := func(route string, h http.HandlerFunc) http.Handler {
		return s.measure(route, s.auth(s.rateLimit(h)))
	}
	mux.Handle("GET /v1/domain/{apex}", protected("domain", s.handleDomain))
	mux.Handle("GET /v1/domain/{apex}/history", protected("history", s.handleHistory))
	mux.Handle("GET /v1/domains", protected("domains", s.handleDomains))
	mux.Handle("GET /v1/stats", protected("stats", s.handleStats))
	mux.Handle("GET /metrics", protected("metrics", s.handleMetrics))
	s.handler = mux
	return s
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves on addr until stop yields, then shuts down
// gracefully: in-flight requests get up to drain to finish while new
// connections are refused. ready, when non-nil, is called with the bound
// address once the listener is up — bind ":0" and learn the port.
func (s *Server) ListenAndServe(addr string, stop <-chan struct{}, drain time.Duration, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	srv := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Drain deadline exceeded: close what's left rather than hang.
		srv.Close()
		return err
	}
	return nil
}

// ---- response shapes ----
//
// Every slice is sorted and every map is string-keyed (encoding/json
// emits those in key order), so a response is a pure function of the
// epoch: byte-identical whether the epoch was loaded once or reached by
// refreshing a followed directory.

type errorResponse struct {
	Error string `json:"error"`
}

// recordJSON shares the stored record's slices: addresses marshal as
// their text form and names as plain strings.
type recordJSON struct {
	Addrs     []netip.Addr  `json:"addrs,omitempty"`
	CNAMEs    []dnsmsg.Name `json:"cnames,omitempty"`
	NSHosts   []dnsmsg.Name `json:"ns_hosts,omitempty"`
	ResolveOK bool          `json:"resolve_ok"`
	NSOK      bool          `json:"ns_ok"`
}

type verdictJSON struct {
	Status          string `json:"status"`
	Provider        string `json:"provider,omitempty"`
	Rerouting       string `json:"rerouting,omitempty"`
	SharedIPSuspect bool   `json:"shared_ip_suspect,omitempty"`
}

type pauseJSON struct {
	Provider  string `json:"provider"`
	StartDay  int    `json:"start_day"`
	EndDay    int    `json:"end_day,omitempty"`
	Open      bool   `json:"open"`
	Resumed   bool   `json:"resumed,omitempty"`
	ResumedAt string `json:"resumed_at,omitempty"`
	Censored  bool   `json:"censored,omitempty"`
}

type hiddenJSON struct {
	Provider string `json:"provider"`
	Week     int    `json:"week"`
	WWW      string `json:"www,omitempty"`
	Addr     string `json:"addr"`
	Verified bool   `json:"verified"`
}

type domainResponse struct {
	Apex string `json:"apex"`
	Rank int    `json:"rank,omitempty"`
	Day  int    `json:"day"`
	Live bool   `json:"live"`
	// Record is the latest sealed day's observation; absent when the
	// domain dropped off the toplist before that day.
	Record  *recordJSON  `json:"record,omitempty"`
	Verdict *verdictJSON `json:"verdict,omitempty"`
	// OpenPause is the domain's currently open OFF window — the §IV-C.1
	// origin-exposure state — when the dynamics campaign has one.
	OpenPause *pauseJSON `json:"open_pause,omitempty"`
	// HiddenRecords are the residual campaign's hidden records for this
	// apex across all scanned weeks.
	HiddenRecords []hiddenJSON `json:"hidden_records,omitempty"`
}

type detectionJSON struct {
	Day  int    `json:"day"`
	Kind string `json:"kind"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

type versionJSON struct {
	Day    int         `json:"day"`
	Gone   bool        `json:"gone,omitempty"`
	Record *recordJSON `json:"record,omitempty"`
}

type exposureWeekJSON struct {
	Provider string `json:"provider"`
	Week     int    `json:"week"`
	Hidden   bool   `json:"hidden"`
	Verified bool   `json:"verified"`
}

type historyResponse struct {
	Apex string `json:"apex"`
	// RecordVersions is the retained delta chain from the snapstore —
	// one entry per observed record change.
	RecordVersions []versionJSON `json:"record_versions,omitempty"`
	// Detections / PauseWindows are the dynamics campaign's behavioural
	// history for this apex (Table IV events, Fig. 5 windows).
	Detections   []detectionJSON `json:"detections,omitempty"`
	PauseWindows []pauseJSON     `json:"pause_windows,omitempty"`
	// ExposureWeeks is the residual campaign's week-over-week exposure
	// presence for this apex.
	ExposureWeeks []exposureWeekJSON `json:"exposure_weeks,omitempty"`
}

type domainsResponse struct {
	Total   int          `json:"total"`
	Domains []domainItem `json:"domains"`
}

type domainItem struct {
	Apex string `json:"apex"`
	Rank int    `json:"rank"`
}

type storeStatsJSON struct {
	Days          int `json:"days"`
	EvictedDays   int `json:"evicted_days"`
	Apexes        int `json:"apexes"`
	Versions      int `json:"versions"`
	Tombstones    int `json:"tombstones"`
	InternedNames int `json:"interned_names"`
}

type dynamicsStatsJSON struct {
	DaysCollected int `json:"days_collected"`
	Population    int `json:"population"`
	Adopters      int `json:"adopters"`
	// AdoptersByProvider is keyed by provider name; string-keyed maps
	// marshal in key order, keeping the response deterministic.
	AdoptersByProvider map[string]int `json:"adopters_by_provider,omitempty"`
	Detections         int            `json:"detections"`
	OpenPauses         int            `json:"open_pauses"`
	ClosedPauses       int            `json:"closed_pauses"`
}

type residualStatsJSON struct {
	WeeksScanned    int            `json:"weeks_scanned"`
	NameserverCount int            `json:"nameserver_count"`
	HiddenTotal     map[string]int `json:"hidden_total"`
	VerifiedTotal   map[string]int `json:"verified_total"`
}

// scenarioStatsJSON identifies the scenario spec that produced the
// epoch: the metadata.name and the SHA-256 of the spec's canonical form,
// as recorded in the campaign cursor. Absent for flag-driven campaigns.
type scenarioStatsJSON struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

type statsResponse struct {
	Kind     string             `json:"kind"`
	WorldDay int                `json:"world_day"`
	Scenario *scenarioStatsJSON `json:"scenario,omitempty"`
	Store    storeStatsJSON     `json:"store"`
	Dynamics *dynamicsStatsJSON `json:"dynamics,omitempty"`
	Residual *residualStatsJSON `json:"residual,omitempty"`
}

// writeJSON encodes v as one line of compact JSON in a single pass.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// seen marks a slot whose body was requested once and not stored.
var seen = new([]byte)

// writeRendered answers 200 with render()'s body as writeJSON encodes it.
// A slot's first request only marks it seen, so answers asked for once
// per epoch are never kept; a repeat stores the body for later requests.
// Concurrent renders encode identical bytes, so any store is as good.
func writeRendered(w http.ResponseWriter, slot *atomic.Pointer[[]byte], render func() any) {
	body := slot.Load()
	if body == nil {
		slot.CompareAndSwap(nil, seen)
		writeJSON(w, http.StatusOK, render())
		return
	}
	if body == seen {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(render())
		b := buf.Bytes()
		body = &b
		slot.Store(body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// epoch fetches the current epoch, answering 503 when the source has
// nothing yet (a campaign before its first sealed round).
func (s *Server) epoch(w http.ResponseWriter) (*Epoch, bool) {
	e, ok := s.cfg.Source.Epoch()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no sealed campaign state yet")
		return nil, false
	}
	return e, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, ok := s.cfg.Source.Epoch()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "serving": ok})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Dump())
}

// lookupApex parses the path's apex and resolves it against the epoch
// to its View.Index, answering 400 on a malformed name and 404 (plus a
// miss count) on an unknown one.
func (s *Server) lookupApex(w http.ResponseWriter, r *http.Request, e *Epoch) (dnsmsg.Name, int, bool) {
	apex, err := dnsmsg.ParseName(r.PathValue("apex"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid domain name")
		return "", 0, false
	}
	i, ok := e.View.Index(apex)
	if !ok {
		s.miss.Inc()
		writeError(w, http.StatusNotFound, "unknown domain")
		return "", 0, false
	}
	s.hit.Inc()
	return apex, i, true
}

func recordJSONOf(rec collect.Record) *recordJSON {
	return &recordJSON{Addrs: rec.Addrs, CNAMEs: rec.CNAMEs, NSHosts: rec.NSHosts, ResolveOK: rec.ResolveOK, NSOK: rec.NSOK}
}

func pauseJSONOf(pw behavior.PauseWindow, open bool) *pauseJSON {
	out := &pauseJSON{
		Provider: string(pw.Provider),
		StartDay: pw.StartDay,
		Open:     open,
		Censored: pw.Censored,
	}
	if !open {
		out.EndDay = pw.EndDay
		out.Resumed = pw.Resumed
		out.ResumedAt = string(pw.ResumedAt)
	}
	return out
}

// hiddenRecordsFor collects the residual campaign's hidden records for
// apex across both case studies, sorted by (provider, week, addr).
func hiddenRecordsFor(st *experiment.ResidualState, apex dnsmsg.Name) []hiddenJSON {
	var out []hiddenJSON
	fromWeeks := func(weeks []experiment.WeeklyReport) {
		for _, wr := range weeks {
			for _, o := range wr.Report.Outcomes {
				if o.Apex != apex {
					continue
				}
				out = append(out, hiddenJSON{
					Provider: string(wr.Report.Provider),
					Week:     wr.Week,
					WWW:      string(o.WWW),
					Addr:     o.Addr.String(),
					Verified: o.Verified,
				})
			}
		}
	}
	fromWeeks(st.Cloudflare)
	fromWeeks(st.Incapsula)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		if out[i].Week != out[j].Week {
			return out[i].Week < out[j].Week
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request) {
	e, ok := s.epoch(w)
	if !ok {
		return
	}
	if apex, i, ok := s.lookupApex(w, r, e); ok {
		writeRendered(w, &e.domain[i], func() any { return domainOf(e, apex) })
	}
}

// domainOf builds apex's /v1/domain answer from e.
func domainOf(e *Epoch, apex dnsmsg.Name) domainResponse {
	resp := domainResponse{Apex: string(apex)}
	if rank, ok := e.View.Rank(apex); ok {
		resp.Rank = rank
	}
	if day, hasDay := e.View.LatestDay(); hasDay {
		resp.Day = day
		if rec, live := e.View.RecordAt(apex, day); live {
			resp.Live = true
			resp.Record = recordJSONOf(rec)
		}
	}
	if dyn := e.State.Dynamics; dyn != nil {
		if a, ok := dyn.Adoptions[apex]; ok {
			resp.Verdict = &verdictJSON{
				Status:          a.Status.String(),
				Provider:        string(a.Provider),
				SharedIPSuspect: a.SharedIPSuspect,
			}
			if a.Rerouting != 0 {
				resp.Verdict.Rerouting = a.Rerouting.String()
			}
		}
		if dyn.HaveTracker {
			for _, pw := range dyn.Tracker.OpenPauses {
				if pw.Apex == apex {
					resp.OpenPause = pauseJSONOf(pw, true)
					break
				}
			}
		}
	}
	if res := e.State.Residual; res != nil {
		resp.HiddenRecords = hiddenRecordsFor(res, apex)
	}
	return resp
}

// exposurePresence extracts apex's per-week hidden/verified flags from
// an exposure tracker's exported weeks, only the weeks it appears in.
func exposurePresence(provider dps.ProviderKey, weeks []exposure.WeekState, apex dnsmsg.Name) []exposureWeekJSON {
	var out []exposureWeekJSON
	for _, wk := range weeks {
		hidden, verified := false, false
		for _, n := range wk.Hidden {
			if n == apex {
				hidden = true
				break
			}
		}
		for _, n := range wk.Verified {
			if n == apex {
				verified = true
				break
			}
		}
		if hidden || verified {
			out = append(out, exposureWeekJSON{
				Provider: string(provider), Week: wk.Week,
				Hidden: hidden, Verified: verified,
			})
		}
	}
	return out
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	e, ok := s.epoch(w)
	if !ok {
		return
	}
	if apex, i, ok := s.lookupApex(w, r, e); ok {
		writeRendered(w, &e.history[i], func() any { return historyOf(e, apex) })
	}
}

// historyOf builds apex's /v1/domain/{apex}/history answer from e.
func historyOf(e *Epoch, apex dnsmsg.Name) historyResponse {
	resp := historyResponse{Apex: string(apex)}
	for _, v := range e.View.History(apex) {
		vj := versionJSON{Day: v.Day, Gone: v.Gone}
		if !v.Gone {
			vj.Record = recordJSONOf(v.Rec)
		}
		resp.RecordVersions = append(resp.RecordVersions, vj)
	}
	if dyn := e.State.Dynamics; dyn != nil && dyn.HaveTracker {
		for _, det := range dyn.Tracker.Detections {
			if det.Apex != apex {
				continue
			}
			resp.Detections = append(resp.Detections, detectionJSON{
				Day: det.Day, Kind: det.Kind.String(),
				From: string(det.From), To: string(det.To),
			})
		}
		sort.SliceStable(resp.Detections, func(i, j int) bool {
			return resp.Detections[i].Day < resp.Detections[j].Day
		})
		for _, pw := range dyn.Tracker.Closed {
			if pw.Apex == apex {
				resp.PauseWindows = append(resp.PauseWindows, *pauseJSONOf(pw, false))
			}
		}
		for _, pw := range dyn.Tracker.OpenPauses {
			if pw.Apex == apex {
				resp.PauseWindows = append(resp.PauseWindows, *pauseJSONOf(pw, true))
			}
		}
		sort.SliceStable(resp.PauseWindows, func(i, j int) bool {
			return resp.PauseWindows[i].StartDay < resp.PauseWindows[j].StartDay
		})
	}
	if res := e.State.Residual; res != nil {
		resp.ExposureWeeks = append(resp.ExposureWeeks,
			exposurePresence(dps.Cloudflare, res.CFExposure, apex)...)
		resp.ExposureWeeks = append(resp.ExposureWeeks,
			exposurePresence(dps.Incapsula, res.IncExposure, apex)...)
		sort.SliceStable(resp.ExposureWeeks, func(i, j int) bool {
			a, b := resp.ExposureWeeks[i], resp.ExposureWeeks[j]
			if a.Provider != b.Provider {
				return a.Provider < b.Provider
			}
			return a.Week < b.Week
		})
	}
	return resp
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	e, ok := s.epoch(w)
	if !ok {
		return
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	top := e.View.Top(limit)
	resp := domainsResponse{Total: e.View.Stats().Apexes, Domains: make([]domainItem, len(top))}
	for i, d := range top {
		resp.Domains[i] = domainItem{Apex: string(d.Apex), Rank: d.Rank}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.epoch(w); ok {
		writeRendered(w, &e.stats, func() any { return statsOf(e) })
	}
}

// statsOf builds the /v1/stats answer from e.
func statsOf(e *Epoch) statsResponse {
	st := e.View.Stats()
	resp := statsResponse{
		Kind:     e.State.Kind,
		WorldDay: e.State.WorldDay(),
		Store: storeStatsJSON{
			Days:          st.Days,
			EvictedDays:   st.EvictedDays,
			Apexes:        st.Apexes,
			Versions:      st.Versions,
			Tombstones:    st.Tombstones,
			InternedNames: st.InternedNames,
		},
	}
	if scn := e.State.Scenario; scn != nil {
		resp.Scenario = &scenarioStatsJSON{Name: scn.Name, Hash: scn.Hash}
	}
	if dyn := e.State.Dynamics; dyn != nil {
		d := &dynamicsStatsJSON{
			DaysCollected: dyn.NextDay,
			Population:    len(dyn.Adoptions),
		}
		if n := len(dyn.Breakdowns); n > 0 {
			last := dyn.Breakdowns[n-1]
			d.Adopters = last.Total
			if len(last.ByProvider) > 0 {
				d.AdoptersByProvider = make(map[string]int, len(last.ByProvider))
				for key, count := range last.ByProvider {
					d.AdoptersByProvider[string(key)] = count
				}
			}
		}
		if dyn.HaveTracker {
			d.Detections = len(dyn.Tracker.Detections)
			d.OpenPauses = len(dyn.Tracker.OpenPauses)
			d.ClosedPauses = len(dyn.Tracker.Closed)
		}
		resp.Dynamics = d
	}
	if res := e.State.Residual; res != nil {
		cf, inc := exposure.RestoreTracker(res.CFExposure), exposure.RestoreTracker(res.IncExposure)
		resp.Residual = &residualStatsJSON{
			WeeksScanned:    res.NextWeek - 1,
			NameserverCount: res.NameserverCount,
			HiddenTotal: map[string]int{
				string(dps.Cloudflare): cf.TotalHidden(),
				string(dps.Incapsula):  inc.TotalHidden(),
			},
			VerifiedTotal: map[string]int{
				string(dps.Cloudflare): cf.TotalVerified(),
				string(dps.Incapsula):  inc.TotalVerified(),
			},
		}
	}
	return resp
}
