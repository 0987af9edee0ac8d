package market_test

// Hostile-input tests for the serving layer: malformed JSON, oversized
// bodies, unknown keys, wrong methods and header abuse must come back as
// clean 4xx responses with JSON error bodies — never a panic, never a 5xx.
// FuzzServeHTTP generalizes the same contract over arbitrary
// method/path/header/body combinations.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"marketscope/internal/market"
)

// injectRequest drives the full serving chain in process and returns the
// recorded response.
func injectRequest(t testing.TB, srv *market.Server, method, path string, body []byte, hdr http.Header) *httptest.ResponseRecorder {
	t.Helper()
	req, err := http.NewRequest(method, "http://market.test"+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request %s %s: %v", method, path, err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.RemoteAddr = "192.0.2.1:1234"
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// decodedBody returns the response body, gunzipped when the response says it
// is gzip-encoded.
func decodedBody(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	body := rec.Body.Bytes()
	if rec.Header().Get("Content-Encoding") != "gzip" {
		return body
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("claimed gzip, not gzip: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return out
}

// requireJSONError asserts the response carries the wanted status and a
// decodable {"error": ...} body.
func requireJSONError(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int) {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d (body %.200s)", rec.Code, wantStatus, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	if body := decodedBody(t, rec); json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("error body not JSON {\"error\": ...} (body %.200s)", body)
	}
}

func TestScanEndpointRejectsHostileInput(t *testing.T) {
	srv := servingFixture(t)

	oversized := []byte(`{"fields":["` + strings.Repeat("a", 2<<20) + `"]}`)
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"truncated json", market.ScanPath, `{"fields": ["package"`, http.StatusBadRequest},
		{"not json at all", market.ScanPath, `GET / HTTP/1.1`, http.StatusBadRequest},
		{"empty body", market.ScanPath, ``, http.StatusBadRequest},
		{"unknown key", market.ScanPath, `{"filter": []}`, http.StatusBadRequest},
		{"trailing data", market.ScanPath, `{"fields":["package"]} {"again": true}`, http.StatusBadRequest},
		{"negative limit", market.ScanPath, `{"limit": -3}`, http.StatusBadRequest},
		{"wrong value type", market.ScanPath, `{"fields": 12}`, http.StatusBadRequest},
		{"oversized query", market.ScanPath, string(oversized), http.StatusBadRequest},
		{"agg truncated json", market.AggregatePath, `{"group_by": [`, http.StatusBadRequest},
		{"agg unknown key", market.AggregatePath, `{"aggregate": []}`, http.StatusBadRequest},
		{"agg empty body", market.AggregatePath, ``, http.StatusBadRequest},
		{"agg bad op", market.AggregatePath, `{"aggregates":[{"op":"median","field":"rating"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := injectRequest(t, srv, http.MethodPost, tc.path, []byte(tc.body), nil)
			requireJSONError(t, rec, tc.want)
		})
	}
}

func TestScanEndpointRejectsWrongMethods(t *testing.T) {
	srv := servingFixture(t)
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, market.ScanPath, http.StatusMethodNotAllowed},
		{http.MethodPut, market.ScanPath, http.StatusMethodNotAllowed},
		{http.MethodDelete, market.AggregatePath, http.StatusMethodNotAllowed},
		{http.MethodPost, market.ScanFieldsPath, http.StatusMethodNotAllowed},
		{http.MethodPost, market.HealthPath, http.StatusMethodNotAllowed},
		{http.MethodPost, market.MetricsPath, http.StatusMethodNotAllowed},
	} {
		rec := injectRequest(t, srv, tc.method, tc.path, []byte(`{}`), nil)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
}

// TestHeaderAbuse floods the chain with abusive but syntactically deliverable
// headers; a well-formed query must still answer 200 and hostile ones a clean
// 4xx, with the gzip negotiation untricked.
func TestHeaderAbuse(t *testing.T) {
	srv := servingFixture(t)
	good := []byte(`{"fields":["package"],"limit":1}`)

	bigHeader := http.Header{}
	bigHeader.Set("X-Filler", strings.Repeat("x", 1<<20))
	for i := 0; i < 500; i++ {
		bigHeader.Add("X-Many", fmt.Sprintf("v%d", i))
	}
	hostileEncodings := http.Header{}
	hostileEncodings.Set("Accept-Encoding", "br;q=nonsense, identity;;;, gzip\x7f")
	hostileEncodings.Set("Content-Type", "text/plain; boundary=\"unterminated")

	for _, tc := range []struct {
		name string
		hdr  http.Header
	}{
		{"huge and repeated headers", bigHeader},
		{"mangled negotiation headers", hostileEncodings},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := injectRequest(t, srv, http.MethodPost, market.ScanPath, good, tc.hdr)
			if rec.Code != http.StatusOK {
				t.Fatalf("valid query under %s: status %d (body %.200s)", tc.name, rec.Code, rec.Body.String())
			}
			if body := decodedBody(t, rec); !json.Valid(body) {
				t.Fatalf("response body not JSON: %.200s", body)
			}
			rec = injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(`{`), tc.hdr)
			requireJSONError(t, rec, http.StatusBadRequest)
		})
	}
}

// FuzzServeHTTP throws arbitrary method/path/header/body combinations at the
// full serving chain. The invariants: no panic anywhere, and the scan and
// aggregate endpoints never answer 5xx — every input that is not a valid
// query is the client's fault.
func FuzzServeHTTP(f *testing.F) {
	f.Add("POST", market.ScanPath, "gzip", []byte(`{"fields":["package"],"limit":2}`))
	f.Add("POST", market.ScanPath, "", []byte(`{"filters":[{"field":"av_positives","op":">=","value":3}]}`))
	f.Add("POST", market.AggregatePath, "identity", []byte(`{"group_by":["market"],"aggregates":[{"op":"count"}]}`))
	f.Add("POST", market.AggregatePath, "gzip, br", []byte(`{"aggregates":[{"op":"topk","field":"category","k":2}]}`))
	f.Add("GET", market.ScanFieldsPath, "gzip", []byte(nil))
	f.Add("GET", market.HealthPath, "", []byte(nil))
	f.Add("GET", market.MetricsPath, "", []byte(nil))
	f.Add("GET", "/api/app?pkg=%zz", "", []byte(nil))
	f.Add("GET", "/api/search?q="+strings.Repeat("a", 4096)+"&limit=-1", "", []byte(nil))
	f.Add("PATCH", market.ScanPath, "\x00", []byte(`{`))
	f.Add("POST", market.ScanPath, "gzip", []byte("\xff\xfe not json"))
	// Negotiation edge cases: a refused gzip, a preferred identity, "*" and
	// its refusal, x-gzip, malformed q-values and a CR LF inside the value.
	wide := []byte(`{"fields":["package","market","app_name"],"limit":50}`)
	f.Add("POST", market.ScanPath, "gzip;q=0, identity", wide)
	f.Add("POST", market.ScanPath, "gzip;q=0.5, identity", wide)
	f.Add("POST", market.ScanPath, "*", wide)
	f.Add("POST", market.AggregatePath, "*;q=0, x-gzip;q=0.001", []byte(`{"group_by":["market"],"aggregates":[{"op":"count"}]}`))
	f.Add("POST", market.AggregatePath, "identity;q=0, *;q=0", []byte(`{"group_by":["market","category"],"aggregates":[{"op":"count"}]}`))
	f.Add("POST", market.ScanPath, "gzip;q=1.5, gzip;q=, ;q=0.5", []byte(`{"fields":["package"],"limit":40}`))
	f.Add("POST", market.ScanPath, "br\r\ngzip", []byte(`{"fields":["package"],"limit":40}`))

	f.Fuzz(func(t *testing.T, method, path, acceptEncoding string, body []byte) {
		srv := servingFixture(t)
		req, err := http.NewRequest(method, "http://market.test"+path, bytes.NewReader(body))
		if err != nil {
			t.Skip("unbuildable request")
		}
		req.Header.Set("Accept-Encoding", acceptEncoding)
		req.RemoteAddr = "192.0.2.1:1234"
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if rec.Code < 100 || rec.Code > 599 {
			t.Fatalf("%s %q: nonsense status %d", method, path, rec.Code)
		}
		if method == http.MethodPost && (path == market.ScanPath || path == market.AggregatePath) {
			if rec.Code >= 500 {
				t.Fatalf("%s %s with body %.100q: status %d (body %.200s)",
					method, path, body, rec.Code, rec.Body.String())
			}
			if respBody := decodedBody(t, rec); !json.Valid(respBody) {
				t.Fatalf("%s %s: non-JSON response %.200q", method, path, respBody)
			}
		}
	})
}
