package market_test

// Panic-recovery tests: a scan source that panics mid-handler must come back
// as a clean 500 JSON error counted in serve_panics_total, with the server
// alive and serving afterwards — net/http's default (kill the connection)
// would surface to clients as an unparseable dropped response.

import (
	"net/http"
	"strings"
	"testing"

	"marketscope/internal/market"
	"marketscope/internal/query"
)

// panicSource explodes on every scan, modeling a latent engine bug.
type panicSource struct{}

func (panicSource) Fields() []query.FieldInfo { return nil }

func (panicSource) Scan(query.Query) (*query.Result, error) {
	panic("scan exploded")
}

func panicFixture(t *testing.T, cfg market.ServeConfig) *market.Server {
	t.Helper()
	srv := market.NewServer(market.NewStore(market.Profile{Name: "panic"}))
	srv.AttachScan(panicSource{})
	srv.ConfigureServing(cfg)
	return srv
}

// panicModes runs each panic test on the bare chain and again with gzip
// configured and negotiated: the recovered error body must decode either way.
var panicModes = []struct {
	name string
	cfg  market.ServeConfig
	hdr  http.Header
}{
	{"identity", market.ServeConfig{}, nil},
	{"gzip", market.ServeConfig{Gzip: true}, http.Header{"Accept-Encoding": {"gzip"}}},
}

func TestPanicRecoveredAsCleanError(t *testing.T) {
	for _, mode := range panicModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			srv := panicFixture(t, mode.cfg)

			rec := injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(`{}`), mode.hdr)
			requireJSONError(t, rec, http.StatusInternalServerError)
			if st := srv.ServingStats(); st.Panics != 1 {
				t.Fatalf("Panics = %d, want 1", st.Panics)
			}

			// The server survived: the health probe answers and a second
			// panic is recovered the same way.
			if rec := injectRequest(t, srv, http.MethodGet, market.HealthPath, nil, mode.hdr); rec.Code != http.StatusOK {
				t.Fatalf("healthz after panic: %d", rec.Code)
			}
			rec = injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(`{}`), mode.hdr)
			requireJSONError(t, rec, http.StatusInternalServerError)
			if st := srv.ServingStats(); st.Panics != 2 {
				t.Fatalf("Panics = %d, want 2", st.Panics)
			}

			mrec := injectRequest(t, srv, http.MethodGet, market.MetricsPath, nil, mode.hdr)
			if mrec.Code != http.StatusOK || !strings.Contains(mrec.Body.String(), "serve_panics_total 2") {
				t.Fatalf("metrics after panics: %d %.300s", mrec.Code, mrec.Body.String())
			}
		})
	}
}

// TestPanicCountsIntoStatusMetrics pins that the recovered 500 flows through
// the status counters like any other server error (recovery sits inside the
// metrics layer).
func TestPanicCountsIntoStatusMetrics(t *testing.T) {
	for _, mode := range panicModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			srv := panicFixture(t, mode.cfg)
			injectRequest(t, srv, http.MethodPost, market.ScanPath, []byte(`{}`), mode.hdr)
			body := injectRequest(t, srv, http.MethodGet, market.MetricsPath, nil, mode.hdr).Body.String()
			if !strings.Contains(body, "market_http_responses_5xx_total 1") {
				t.Fatalf("panic not counted as 5xx:\n%.500s", body)
			}
		})
	}
}
