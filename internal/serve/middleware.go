package serve

import (
	"crypto/subtle"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// apiKey extracts the request's API key: `Authorization: Bearer <key>`
// or the `X-API-Key` header.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return rest
		}
	}
	return r.Header.Get("X-API-Key")
}

// auth rejects requests whose key is not in keys with 401. Comparison is
// constant-time per candidate key so the middleware doesn't leak key
// prefixes through timing. An empty key set disables auth (a private
// deployment behind its own perimeter).
func (s *Server) auth(next http.Handler) http.Handler {
	if len(s.cfg.APIKeys) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := apiKey(r)
		for _, k := range s.cfg.APIKeys {
			if subtle.ConstantTimeCompare([]byte(key), []byte(k)) == 1 {
				next.ServeHTTP(w, r)
				return
			}
		}
		s.reg.VolatileCounter("serve.auth.rejected").Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="rrserve"`)
		writeError(w, http.StatusUnauthorized, "missing or invalid API key")
	})
}

// buckets is a per-key token-bucket limiter: each key accrues Rate
// tokens per second up to Burst, and each request spends one. The clock
// is injected so tests drive it deterministically.
type buckets struct {
	mu    sync.Mutex
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time
	byKey map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newBuckets(rate float64, burst int, now func() time.Time) *buckets {
	return &buckets{rate: rate, burst: float64(burst), now: now, byKey: make(map[string]*bucket)}
}

// take spends one token for key. When the bucket is dry it returns
// ok=false and how long until a token accrues — the Retry-After value.
func (b *buckets) take(key string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	bk := b.byKey[key]
	if bk == nil {
		bk = &bucket{tokens: b.burst, last: now}
		b.byKey[key] = bk
	} else {
		bk.tokens = math.Min(b.burst, bk.tokens+now.Sub(bk.last).Seconds()*b.rate)
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	need := (1 - bk.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// rateLimit applies the per-key token bucket, answering 429 with a
// Retry-After header (whole seconds, rounded up — a client that waits
// that long is guaranteed a token) when the key's bucket is dry. It runs
// behind auth, so with auth on a bucket's key is an accepted API key.
// With auth off every request shares one bucket: a key the client
// invents must neither buy a fresh burst nor grow the bucket table.
func (s *Server) rateLimit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := ""
		if len(s.cfg.APIKeys) > 0 {
			key = apiKey(r)
		}
		ok, retryAfter := s.limiter.take(key)
		if !ok {
			s.reg.VolatileCounter("serve.ratelimited").Inc()
			secs := int(math.Ceil(retryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// measure records per-route request counts and latency histograms into
// the registry. route is the metric label (dots, not slashes). The
// metrics are volatile: wall-clock latencies are scheduling noise by
// definition, and the campaign's deterministic metric set must not
// absorb them.
func (s *Server) measure(route string, next http.Handler) http.Handler {
	count := s.reg.VolatileCounter("serve.requests." + route)
	errs := s.reg.VolatileCounter("serve.errors." + route)
	latency := s.reg.VolatileHistogram("serve.latency_us." + route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		count.Inc()
		if rec.status >= 500 {
			errs.Inc()
		}
		latency.Observe(uint64(s.cfg.now().Sub(start).Microseconds()))
	})
}
