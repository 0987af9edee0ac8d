package market_test

// Server-level tests of the serving layer: cache hits byte-identical to the
// misses that populated them, epoch invalidation, singleflight collapse over
// real concurrent requests, load shedding under saturation, per-request
// timeouts, per-client rate limiting, gzip, /healthz and /metrics.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marketscope/internal/market"
	"marketscope/internal/query"
)

// countingSource wraps the fixture engine and counts executions; when gate is
// non-nil every scan blocks on it first, so tests can hold a compute open
// while concurrent identical requests pile up.
type countingSource struct {
	src   query.Source
	scans atomic.Int64
	gate  chan struct{}
}

func (c *countingSource) Fields() []query.FieldInfo { return c.src.Fields() }

func (c *countingSource) Scan(q query.Query) (*query.Result, error) {
	c.scans.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.src.Scan(q)
}

// slowSource delays every scan, honouring cancellation — the stand-in for an
// expensive query when tests need predictable saturation.
type slowSource struct {
	src   query.Source
	delay time.Duration
}

func (s *slowSource) Fields() []query.FieldInfo { return s.src.Fields() }

func (s *slowSource) Scan(q query.Query) (*query.Result, error) {
	return s.ScanContext(context.Background(), q)
}

func (s *slowSource) ScanContext(ctx context.Context, q query.Query) (*query.Result, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.src.Scan(q)
}

// newServingServer builds a server over the fixture store/dataset with the
// given source and config.
func newServingServer(t *testing.T, src query.Source, cfg market.ServeConfig) *market.Server {
	t.Helper()
	srv := market.NewServer(scanStore)
	srv.AttachScan(src)
	srv.ConfigureServing(cfg)
	return srv
}

func postScan(t *testing.T, srv *market.Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, market.ScanPath, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestCacheHitByteIdenticalToMiss(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{CacheBytes: 1 << 20})

	body := `{"fields":["package","market"],"filters":[{"field":"market_chinese","op":"==","value":true}],"limit":7}`
	first := postScan(t, srv, body)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first request: code=%d X-Cache=%q, want 200 MISS", first.Code, first.Header().Get("X-Cache"))
	}
	second := postScan(t, srv, body)
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second request: code=%d X-Cache=%q, want 200 HIT", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("hit not byte-identical to the miss that populated it:\nmiss: %.200s\nhit:  %.200s",
			first.Body.Bytes(), second.Body.Bytes())
	}

	// A semantically identical request spelled differently (key order,
	// whitespace) must land on the same entry: the key is the canonical
	// parsed request, not the raw body.
	reordered := `{ "limit": 7, "filters": [ {"value": true, "op": "==", "field": "market_chinese"} ], "fields": ["package", "market"] }`
	third := postScan(t, srv, reordered)
	if third.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("reordered spelling missed the cache (X-Cache=%q)", third.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("reordered spelling returned different bytes")
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{CacheBytes: 1 << 20})
	body := `{"fields":["package"],"limit":3}`

	postScan(t, srv, body)
	if rec := postScan(t, srv, body); rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("warmup did not cache (X-Cache=%q)", rec.Header().Get("X-Cache"))
	}
	epochBefore := srv.Epoch()
	srv.BumpEpoch()
	if srv.Epoch() != epochBefore+1 {
		t.Fatalf("epoch %d after bump of %d", srv.Epoch(), epochBefore)
	}
	if rec := postScan(t, srv, body); rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("request after epoch bump was a %q, want MISS", rec.Header().Get("X-Cache"))
	}
	if st := srv.ServingStats(); st.CacheMisses < 2 {
		t.Fatalf("stats did not record the second miss: %+v", st)
	}
}

func TestCacheSingleflightOverHTTP(t *testing.T) {
	ds, _ := scanFixture(t)
	cs := &countingSource{src: ds.QuerySource(), gate: make(chan struct{})}
	srv := newServingServer(t, cs, market.ServeConfig{CacheBytes: 1 << 20})
	body := `{"fields":["package"],"limit":5}`

	const callers = 12
	var wg sync.WaitGroup
	codes := make([]int, callers)
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postScan(t, srv, body)
			codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
		}()
	}
	// Let the leader enter the engine and the followers pile onto its
	// flight, then release everyone.
	deadline := time.Now().Add(5 * time.Second)
	for cs.scans.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(cs.gate)
	wg.Wait()

	if n := cs.scans.Load(); n != 1 {
		t.Fatalf("%d engine executions for %d concurrent identical requests, want 1", n, callers)
	}
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
}

// TestLoadShedding is the overload acceptance test: offered load at twice
// the gate's total capacity must shed some requests with 503 + Retry-After
// while every accepted request completes within its timeout budget.
func TestLoadShedding(t *testing.T) {
	const (
		delay       = 50 * time.Millisecond
		maxInflight = 2
		maxQueue    = 2
		timeout     = 2 * time.Second
		offered     = 2 * (maxInflight + maxQueue) * 2 // 2x capacity, twice over
	)
	ds, _ := scanFixture(t)
	srv := newServingServer(t, &slowSource{src: ds.QuerySource(), delay: delay},
		market.ServeConfig{MaxInflight: maxInflight, MaxQueue: maxQueue, Timeout: timeout})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type outcome struct {
		code       int
		took       time.Duration
		retryAfter string
	}
	outcomes := make([]outcome, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct bodies so nothing collapses or caches away the load.
			body := fmt.Sprintf(`{"fields":["package"],"limit":%d}`, i+1)
			start := time.Now()
			resp, err := http.Post(ts.URL+market.ScanPath, "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{code: resp.StatusCode, took: time.Since(start),
				retryAfter: resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()

	var accepted, shed int
	var worstAccepted time.Duration
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			accepted++
			if o.took > worstAccepted {
				worstAccepted = o.took
			}
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter == "" {
				t.Errorf("request %d shed without Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, o.code)
		}
		if o.took > timeout+time.Second {
			t.Errorf("request %d took %v, beyond its %v budget", i, o.took, timeout)
		}
	}
	if shed == 0 {
		t.Fatalf("no requests shed at 2x capacity (accepted %d)", accepted)
	}
	if accepted == 0 {
		t.Fatal("every request shed; the gate admitted nothing")
	}
	// Accepted requests drain in batches of maxInflight; even the last
	// queued one is bounded well below the timeout.
	if bound := timeout; worstAccepted > bound {
		t.Fatalf("accepted p100 %v exceeds %v", worstAccepted, bound)
	}
	st := srv.ServingStats()
	if st.Shed != int64(shed) {
		t.Fatalf("stats shed %d, observed %d", st.Shed, shed)
	}
	if st.P99 <= 0 || st.P99 > timeout {
		t.Fatalf("p99 %v outside (0, %v]", st.P99, timeout)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, &slowSource{src: ds.QuerySource(), delay: time.Second},
		market.ServeConfig{Timeout: 30 * time.Millisecond})

	start := time.Now()
	rec := postScan(t, srv, `{"fields":["package"],"limit":1}`)
	took := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %.200s)", rec.Code, rec.Body.String())
	}
	if took > 500*time.Millisecond {
		t.Fatalf("timed-out request held the connection %v", took)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("504 body is not a JSON error: %q", rec.Body.String())
	}
	if st := srv.ServingStats(); st.Timeouts == 0 {
		t.Fatalf("timeout not recorded in stats: %+v", st)
	}
}

func TestPerClientRateLimit(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(),
		market.ServeConfig{RatePerSecond: 0.001, Burst: 2})

	get := func(remote string) int {
		req := httptest.NewRequest(http.MethodGet, "/api/info", nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if c := get("10.0.0.1:1111"); c != http.StatusOK {
		t.Fatalf("first request: %d", c)
	}
	if c := get("10.0.0.1:2222"); c != http.StatusOK {
		t.Fatalf("second request (same host, new port): %d", c)
	}
	if c := get("10.0.0.1:3333"); c != http.StatusTooManyRequests {
		t.Fatalf("third request past the burst: %d, want 429", c)
	}
	// A different client has its own bucket.
	if c := get("10.0.0.2:1111"); c != http.StatusOK {
		t.Fatalf("other client's first request: %d", c)
	}
	if st := srv.ServingStats(); st.RateLimited == 0 {
		t.Fatalf("429 not recorded in stats: %+v", st)
	}
}

// gzipScan is a scan with a body of a few kilobytes on the fixture.
const gzipScan = `{"fields":["package","market","app_name"],"limit":50}`

// acceptEncoding is a request header with the given Accept-Encoding field
// lines.
func acceptEncoding(lines ...string) http.Header {
	return http.Header{"Accept-Encoding": lines}
}

// requireGzip asserts the response is gzip-encoded and returns it decoded.
func requireGzip(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	return decodedBody(t, rec)
}

func TestGzipResponses(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{Gzip: true})

	plain := httptest.NewRecorder()
	srv.ServeHTTP(plain, httptest.NewRequest(http.MethodGet, "/api/info", nil))
	if enc := plain.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("uncompressed request got Content-Encoding %q", enc)
	}

	req := httptest.NewRequest(http.MethodGet, "/api/info", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	zipped := httptest.NewRecorder()
	srv.ServeHTTP(zipped, req)
	if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(zipped.Body)
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if !bytes.Equal(unzipped, plain.Body.Bytes()) {
		t.Fatalf("gzipped body decodes to different content:\nplain: %s\ngzip:  %s", plain.Body.Bytes(), unzipped)
	}
}

// TestGzipNegotiation drives Accept-Encoding through the serving chain:
// every field line counts, q-values rank gzip against identity, and "*"
// stands in for codings not listed.
func TestGzipNegotiation(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{Gzip: true})
	for _, tc := range []struct {
		lines []string
		gzip  bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"gzip"}, true},
		{[]string{"GZip"}, true},
		{[]string{"x-gzip"}, true},
		{[]string{" gzip ; q=0.5 "}, true},
		{[]string{"gzip;Q=1.000"}, true},
		{[]string{"gzip;q=0.001"}, true},
		{[]string{"gzip;level=9"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip;q=0.000"}, false},
		{[]string{"gzip;q=0, identity"}, false},
		{[]string{"identity, gzip;q=0"}, false},
		{[]string{"gzip;q=0.5, identity"}, false},
		{[]string{"gzip;q=0.5, identity;q=0.4"}, true},
		{[]string{"gzip;q=0.5, identity;q=0.5"}, true},
		{[]string{"identity;q=0, gzip"}, true},
		{[]string{"deflate, br"}, false},
		{[]string{"br", "gzip"}, true},
		{[]string{"gzip;q=0", "identity"}, false},
		{[]string{"*"}, true},
		{[]string{"*;q=0"}, false},
		{[]string{"*, gzip;q=0"}, false},
		{[]string{"*;q=0, gzip"}, true},
		{[]string{"*;q=0.8, gzip;q=0.5"}, false},
		{[]string{"*;q=0.5, gzip;q=0.8"}, true},
		{[]string{"gzip;q=nonsense"}, false},
		{[]string{"gzip;q=1.5"}, false},
		{[]string{"gzip;q=0.1234"}, false},
		{[]string{"gzipx, xgzip"}, false},
		{[]string{"br;q=nonsense, identity;;;, gzip\x7f"}, false},
		{[]string{",,gzip,,"}, true},
	} {
		rec := injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(gzipScan), acceptEncoding(tc.lines...))
		if rec.Code != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: status %d", tc.lines, rec.Code)
		}
		if got := rec.Header().Get("Content-Encoding") == "gzip"; got != tc.gzip {
			t.Errorf("Accept-Encoding %q: gzip = %v, want %v", tc.lines, got, tc.gzip)
		}
		if v := rec.Header().Get("Vary"); v != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %q: Vary %q, want Accept-Encoding", tc.lines, v)
		}
	}
}

// TestGzipCacheHitMatchesIdentityMiss pins that the result cache stores one
// body form: a gzip client's hit decodes to exactly the bytes of the
// identity miss that filled the entry.
func TestGzipCacheHitMatchesIdentityMiss(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{Gzip: true, CacheBytes: 1 << 20})
	miss := injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(gzipScan), nil)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "MISS" || miss.Header().Get("Content-Encoding") != "" {
		t.Fatalf("first request: code=%d X-Cache=%q Content-Encoding=%q, want an identity 200 MISS",
			miss.Code, miss.Header().Get("X-Cache"), miss.Header().Get("Content-Encoding"))
	}
	hit := injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(gzipScan), acceptEncoding("gzip"))
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second request: code=%d X-Cache=%q, want 200 HIT", hit.Code, hit.Header().Get("X-Cache"))
	}
	if body := requireGzip(t, hit); !bytes.Equal(body, miss.Body.Bytes()) {
		t.Fatalf("gzip hit decodes to different bytes than the identity miss:\nmiss: %.200s\nhit:  %.200s", miss.Body.Bytes(), body)
	}
}

func TestHealthz(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, market.HealthPath, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var h struct {
		Status string `json:"status"`
		Market string `json:"market"`
		Apps   int    `json:"apps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode healthz: %v (%q)", err, rec.Body.String())
	}
	if h.Status != "ok" || h.Market == "" || h.Apps <= 0 {
		t.Fatalf("healthz body %+v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, ds.QuerySource(), market.ServeConfig{CacheBytes: 1 << 20})
	body := `{"fields":["package"],"limit":2}`
	postScan(t, srv, body)
	postScan(t, srv, body) // hit

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, market.MetricsPath, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"market_http_requests_total 2",
		"market_cache_hits_total 1",
		"market_cache_misses_total 1",
		"market_http_request_seconds_bucket",
		"market_http_request_seconds_count 2",
		"market_http_qps",
		"market_cache_hit_ratio 0.5",
		"market_dataset_epoch",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHealthzBypassesGate pins that the operational endpoints answer even
// while the serving chain is saturated.
func TestHealthzBypassesGate(t *testing.T) {
	ds, _ := scanFixture(t)
	srv := newServingServer(t, &slowSource{src: ds.QuerySource(), delay: 300 * time.Millisecond},
		market.ServeConfig{MaxInflight: 1, MaxQueue: 0, Timeout: 2 * time.Second})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postScan(t, srv, `{"fields":["package"],"limit":1}`)
	}()
	time.Sleep(30 * time.Millisecond) // the slow scan now holds the only slot

	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, market.HealthPath, nil))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("healthz under saturation: %d", code)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("healthz blocked behind the inflight gate")
	}
	wg.Wait()
}
