package market

import (
	"compress/gzip"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The serving middleware. Each piece is an independent http.Handler wrapper;
// ConfigureServing composes the ones the config enables, outermost first:
//
//	metrics -> panic recovery -> inflight gate -> per-client rate limit -> timeout -> gzip -> routes
//
// The gate sits outside the rate limiter so an overloaded server sheds with
// one atomic instead of taking the limiter lock, and the timeout sits inside
// the gate so a request's budget starts when it begins running, not while it
// queues (queue time is bounded anyway: slots free at the pace of running
// requests, each of which the timeout bounds).

// middleware wraps a handler with one serving concern.
type middleware func(http.Handler) http.Handler

// chainMiddleware applies mws to h so that mws[0] is the outermost layer.
func chainMiddleware(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// --- metrics ---

// statusRecorder captures the response status for the metrics layer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// metricsMiddleware counts every request, classifies its status and records
// its wall-clock latency.
func metricsMiddleware(m *serverMetrics) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			m.inflight.Add(1)
			sr := &statusRecorder{ResponseWriter: w}
			next.ServeHTTP(sr, r)
			m.inflight.Add(-1)
			m.latency.Observe(time.Since(start).Seconds())
			m.requests.Inc()
			switch status := sr.status; {
			case status >= 500:
				m.status5xx.Inc()
			case status >= 400:
				m.status4xx.Inc()
			default:
				m.status2xx.Inc()
			}
		})
	}
}

// --- panic recovery ---

// recoverMiddleware converts a handler panic into a clean 500 JSON error
// instead of letting net/http kill the connection mid-response: the stack is
// logged, serve_panics_total counts it, and the client gets a parseable body.
// It sits just inside the metrics layer so the 500 lands in the status
// counters, and writes the error only when the handler had not started a
// response (a half-written body cannot be unsent — the abort then surfaces as
// a truncated stream, which is all net/http could have offered anyway).
// http.ErrAbortHandler passes through untouched; it is the sanctioned way to
// abort deliberately.
func recoverMiddleware(m *serverMetrics) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				m.panics.Inc()
				log.Printf("market: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				if sr, ok := w.(*statusRecorder); !ok || sr.status == 0 {
					writeJSONStatus(w, http.StatusInternalServerError, scanError{Error: "internal server error"})
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// --- inflight gate ---

// inflightGate caps the number of concurrently running requests at the
// semaphore's capacity and lets at most maxQueue further requests wait for a
// slot; anything beyond that is shed immediately with 503.
type inflightGate struct {
	sem      chan struct{}
	maxQueue int64
	queued   atomic.Int64
}

func newInflightGate(maxInflight, maxQueue int) *inflightGate {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &inflightGate{sem: make(chan struct{}, maxInflight), maxQueue: int64(maxQueue)}
}

// inflightMiddleware admits, queues or sheds. Shedding answers 503 with
// Retry-After so well-behaved clients back off, and counts into m.shed — the
// overload signal the /metrics endpoint exposes.
func inflightMiddleware(g *inflightGate, m *serverMetrics) middleware {
	shed := func(w http.ResponseWriter) {
		m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded", http.StatusServiceUnavailable)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case g.sem <- struct{}{}:
			default:
				// No free slot: take a queue place or shed on a full queue.
				if g.queued.Add(1) > g.maxQueue {
					g.queued.Add(-1)
					shed(w)
					return
				}
				select {
				case g.sem <- struct{}{}:
					g.queued.Add(-1)
				case <-r.Context().Done():
					g.queued.Add(-1)
					shed(w)
					return
				}
			}
			defer func() { <-g.sem }()
			next.ServeHTTP(w, r)
		})
	}
}

// --- per-client rate limit ---

// clientLimiter holds one token bucket per client key (the remote host).
// When the table exceeds maxClients it is reset wholesale: key churn then
// costs every client one refilled bucket rather than the server unbounded
// memory.
type clientLimiter struct {
	mu         sync.Mutex
	rate       float64
	burst      int
	maxClients int
	buckets    map[string]*tokenBucket
}

func newClientLimiter(ratePerSecond float64, burst int) *clientLimiter {
	if burst < 1 {
		burst = int(ratePerSecond * 2)
	}
	return &clientLimiter{
		rate:       ratePerSecond,
		burst:      burst,
		maxClients: 4096,
		buckets:    map[string]*tokenBucket{},
	}
}

func (cl *clientLimiter) allow(key string) bool {
	cl.mu.Lock()
	b, ok := cl.buckets[key]
	if !ok {
		if len(cl.buckets) >= cl.maxClients {
			cl.buckets = map[string]*tokenBucket{}
		}
		b = newTokenBucket(cl.rate, cl.burst)
		cl.buckets[key] = b
	}
	cl.mu.Unlock()
	return b.allow()
}

// clientKey buckets requests by remote host; the port changes per connection
// and must not split one client across buckets.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// rateLimitMiddleware generalizes the profile token bucket to one bucket per
// client: an aggressive client gets 429s while the rest are untouched.
func rateLimitMiddleware(cl *clientLimiter, m *serverMetrics) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !cl.allow(clientKey(r)) {
				m.rateLimited.Inc()
				w.Header().Set("Retry-After", "1")
				http.Error(w, "client rate limit exceeded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// --- timeout ---

// timeoutMiddleware attaches a deadline to the request context. Enforcement
// is cooperative: the context-aware engine paths stop at the next chunk
// boundary past the deadline and the scan handlers map DeadlineExceeded to
// 504, so a response is always written by the handler itself (unlike
// http.TimeoutHandler, which races the handler for the ResponseWriter).
func timeoutMiddleware(d time.Duration) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// --- gzip ---

// The compression level comes from a curve measured over real scan bodies
// (about 9 KB): BestSpeed costs about half the default level's CPU for about
// 8% more wire bytes, and its reset is O(1) where the default level clears
// flate's 640 KiB of hash tables on every response. Huffman-only halves the
// CPU again but more than doubles the wire bytes.
const gzipLevel = gzip.BestSpeed

var gzipPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzipLevel) // a valid constant level cannot fail
	return zw
}}

// gzipResponseWriter compresses the body through a pooled gzip.Writer that
// it starts at the first non-empty Write. Until then it holds the status
// back, so Content-Encoding is set only on a response whose body is
// compressed, and a handler that panics before writing leaves no header
// behind for panic recovery's identity error body. Content-Length (if a
// handler set one) describes the identity body and is dropped when
// compression starts.
type gzipResponseWriter struct {
	http.ResponseWriter
	status int          // held WriteHeader code; 0 until the handler sets one
	gz     *gzip.Writer // non-nil once the response is compressed
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if g.status == 0 {
		g.status = code
	}
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if g.gz == nil {
		if len(p) == 0 {
			return 0, nil
		}
		h := g.Header()
		h.Set("Content-Encoding", "gzip")
		h.Del("Content-Length")
		if g.status == 0 {
			g.status = http.StatusOK
		}
		g.ResponseWriter.WriteHeader(g.status)
		g.gz = gzipPool.Get().(*gzip.Writer)
		g.gz.Reset(g.ResponseWriter)
	}
	return g.gz.Write(p)
}

// finish ends the response once the handler has returned: it closes the gzip
// stream, or sends the held status of a response with no body.
func (g *gzipResponseWriter) finish() {
	if g.gz != nil {
		_ = g.gz.Close() // a failed write to the client has no one left to tell
		gzipPool.Put(g.gz)
		return
	}
	if g.status != 0 {
		g.ResponseWriter.WriteHeader(g.status)
	}
}

// gzipMiddleware compresses the responses of clients that accept gzip (see
// gzipResponseWriter). Every response it passes carries Vary:
// Accept-Encoding, since any of them could have been compressed for another
// client. A handler panic skips finish on purpose: panic recovery writes the
// error instead.
func gzipMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(r.Header.Values("Accept-Encoding")) {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{ResponseWriter: w}
		next.ServeHTTP(gw, r)
		gw.finish()
	})
}

// acceptsGzip reports whether the Accept-Encoding field lines, read per
// RFC 9110 §12.5.3, make gzip acceptable and at least as preferred as
// identity. A coding takes the q-value of its own entry (the highest, if
// listed twice), else that of "*"; x-gzip is gzip. Identity left unlisted,
// and not covered by "*", states no preference, so any acceptable gzip wins.
// An entry whose q-value is malformed is ignored. A request with no
// Accept-Encoding field gets identity: clients that take gzip say so.
func acceptsGzip(lines []string) bool {
	gzipQ, identityQ, anyQ := -1, -1, -1
	for _, line := range lines {
		for line != "" {
			var elem string
			elem, line, _ = strings.Cut(line, ",")
			coding, q, ok := parseCoding(elem)
			switch {
			case !ok:
			case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
				gzipQ = max(gzipQ, q)
			case strings.EqualFold(coding, "identity"):
				identityQ = max(identityQ, q)
			case coding == "*":
				anyQ = max(anyQ, q)
			}
		}
	}
	if gzipQ < 0 {
		gzipQ = anyQ
	}
	if identityQ < 0 {
		identityQ = max(anyQ, 0)
	}
	return gzipQ > 0 && gzipQ >= identityQ
}

// parseCoding splits one Accept-Encoding entry into its coding and its
// q-value in thousandths (1000 when absent). ok is false for an empty entry
// or a malformed q-value.
func parseCoding(elem string) (string, int, bool) {
	coding, params, _ := strings.Cut(elem, ";")
	coding = strings.Trim(coding, " \t")
	if coding == "" {
		return "", 0, false
	}
	q := 1000
	for params != "" {
		var param string
		param, params, _ = strings.Cut(params, ";")
		name, value, _ := strings.Cut(param, "=")
		if strings.EqualFold(strings.Trim(name, " \t"), "q") {
			var ok bool
			if q, ok = parseQValue(strings.Trim(value, " \t")); !ok {
				return "", 0, false
			}
		}
	}
	return coding, q, true
}

// parseQValue parses an RFC 9110 qvalue ("0", "0.5", "1.000", ...) into
// thousandths.
func parseQValue(s string) (int, bool) {
	if len(s) == 0 || len(s) > 5 || s[0] < '0' || s[0] > '1' {
		return 0, false
	}
	q := int(s[0]-'0') * 1000
	if len(s) > 1 {
		if s[1] != '.' {
			return 0, false
		}
		for i, scale := 2, 100; i < len(s); i, scale = i+1, scale/10 {
			if s[i] < '0' || s[i] > '9' {
				return 0, false
			}
			q += int(s[i]-'0') * scale
		}
	}
	return q, q <= 1000
}
