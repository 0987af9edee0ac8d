package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"marketscope/internal/crawler"
	"marketscope/internal/synth"
)

// TestMarketsimServesGeneratedEcosystem boots the command against a tiny
// synth snapshot on ephemeral ports, waits for the endpoints file, probes one
// market over HTTP and then shuts the command down cleanly.
func TestMarketsimServesGeneratedEcosystem(t *testing.T) {
	endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
	stop := make(chan os.Signal, 1)
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-apps", "40", "-developers", "18", "-seed", "11",
			"-port", "0", "-endpoints", endpointsPath,
		}, &buf, stop)
	}()

	// The endpoints file is written after every listener is up.
	var endpoints []crawler.Endpoint
	deadline := time.Now().Add(30 * time.Second)
	for {
		blob, err := os.ReadFile(endpointsPath)
		if err == nil {
			if err := json.Unmarshal(blob, &endpoints); err != nil {
				t.Fatalf("endpoints file malformed: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoints file never appeared")
		}
		select {
		case err := <-done:
			t.Fatalf("marketsim exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if len(endpoints) == 0 {
		t.Fatal("no endpoints published")
	}

	// Every market must answer its info route with its own name.
	for _, ep := range endpoints {
		resp, err := http.Get(ep.BaseURL + "/api/info")
		if err != nil {
			t.Fatalf("%s unreachable: %v", ep.Name, err)
		}
		body := struct {
			Name string `json:"name"`
		}{}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: bad info payload: %v", ep.Name, err)
		}
		if body.Name != ep.Name {
			t.Errorf("%s reported name %q", ep.Name, body.Name)
		}
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	out := buf.String()
	if !strings.Contains(out, "serving") || !strings.Contains(out, "listings") {
		t.Errorf("missing serving banner in output:\n%s", out)
	}
	for _, ep := range endpoints {
		if !strings.Contains(out, ep.Name) {
			t.Errorf("market %s missing from output", ep.Name)
		}
	}
}

// waitEndpoints polls for the endpoints file the command writes once every
// listener is up.
func waitEndpoints(t *testing.T, path string, done <-chan error) []crawler.Endpoint {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		blob, err := os.ReadFile(path)
		if err == nil {
			var endpoints []crawler.Endpoint
			if err := json.Unmarshal(blob, &endpoints); err != nil {
				t.Fatalf("endpoints file malformed: %v", err)
			}
			return endpoints
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoints file never appeared")
		}
		select {
		case err := <-done:
			t.Fatalf("marketsim exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestMarketsimAnalysisIngestEndpoint boots the command with -analysis and
// drives the delta-fed analysis endpoint end to end over HTTP: cursor probe,
// delta push, and a scan observing the published epoch.
func TestMarketsimAnalysisIngestEndpoint(t *testing.T) {
	endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
	stop := make(chan os.Signal, 1)
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-apps", "40", "-developers", "18", "-seed", "11",
			"-port", "0", "-endpoints", endpointsPath, "-analysis",
		}, &buf, stop)
	}()
	endpoints := waitEndpoints(t, endpointsPath, done)

	var base string
	for _, ep := range endpoints {
		if ep.Name == "analysis" {
			base = ep.BaseURL
		}
	}
	if base == "" {
		t.Fatalf("no analysis endpoint published: %+v", endpoints)
	}

	getCursor := func() (cursor uint64, listings int) {
		resp, err := http.Get(base + "/api/ingest")
		if err != nil {
			t.Fatalf("cursor probe: %v", err)
		}
		defer resp.Body.Close()
		var cs struct {
			Cursor   uint64 `json:"cursor"`
			Listings int    `json:"listings"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
			t.Fatalf("cursor body: %v", err)
		}
		return cs.Cursor, cs.Listings
	}
	if cursor, listings := getCursor(); cursor != 0 || listings != 0 {
		t.Fatalf("fresh analysis server at cursor %d with %d listings", cursor, listings)
	}

	delta := `{"seq": 0, "listings": [
		{"record": {"market": "Google Play", "package": "com.example.pushed",
		            "app_name": "Pushed", "category": "tools", "developer_name": "dev",
		            "downloads": 100, "rating": 4.5}}]}`
	resp, err := http.Post(base+"/api/ingest", "application/json", strings.NewReader(delta))
	if err != nil {
		t.Fatalf("push delta: %v", err)
	}
	var res struct {
		Applied bool `json:"applied"`
		Added   int  `json:"added"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || !res.Applied || res.Added != 1 {
		t.Fatalf("delta result %+v (err %v)", res, err)
	}
	if cursor, listings := getCursor(); cursor != 1 || listings != 1 {
		t.Fatalf("after delta: cursor %d, %d listings", cursor, listings)
	}

	resp, err = http.Post(base+"/api/scan", "application/json",
		strings.NewReader(`{"fields":["package"],"filters":[{"field":"market","op":"==","value":"Google Play"}]}`))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var scan struct {
		Rows [][]any `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&scan)
	resp.Body.Close()
	if err != nil || len(scan.Rows) != 1 || scan.Rows[0][0] != "com.example.pushed" {
		t.Fatalf("scan after publish: rows %+v (err %v)", scan.Rows, err)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestMarketsimHoldBackRelease boots the command with half of every catalog
// withheld and a fast release ticker, and waits for the markets to grow back
// to the full ecosystem size.
func TestMarketsimHoldBackRelease(t *testing.T) {
	// The expected full size comes from regenerating the same seed.
	cfg := synth.DefaultConfig()
	cfg.NumApps = 40
	cfg.NumDevelopers = 18
	cfg.Seed = 11
	eco, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := eco.NumListings()

	endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
	stop := make(chan os.Signal, 1)
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-apps", "40", "-developers", "18", "-seed", "11",
			"-port", "0", "-endpoints", endpointsPath,
			"-hold-back", "0.5", "-release-every", "25ms", "-release-batch", "40",
		}, &buf, stop)
	}()
	endpoints := waitEndpoints(t, endpointsPath, done)

	countListings := func() int {
		sum := 0
		for _, ep := range endpoints {
			resp, err := http.Get(ep.BaseURL + "/api/info")
			if err != nil {
				t.Fatalf("%s: %v", ep.Name, err)
			}
			var info struct {
				NumApps int `json:"num_apps"`
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s info: %v", ep.Name, err)
			}
			sum += info.NumApps
		}
		return sum
	}
	deadline := time.Now().Add(30 * time.Second)
	for countListings() != total {
		if time.Now().After(deadline) {
			t.Fatalf("catalogs stuck at %d listings, want %d", countListings(), total)
		}
		time.Sleep(25 * time.Millisecond)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "holding back") {
		t.Errorf("missing hold-back banner in output:\n%s", buf.String())
	}
}

func TestMarketsimRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf, nil); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-apps", "1", "-developers", "1"}, &buf, nil); err == nil {
		t.Error("invalid synth config accepted")
	}
	// An unwritable endpoints path must surface as an error, not hang.
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	badPath := filepath.Join(t.TempDir(), "missing-dir", "endpoints.json")
	if err := run([]string{"-apps", "40", "-developers", "18", "-port", "0", "-endpoints", badPath}, &buf, stop); err == nil {
		t.Error("unwritable endpoints path accepted")
	}
	if err := run([]string{"-hold-back", "1.5"}, &buf, nil); err == nil {
		t.Error("out-of-range -hold-back accepted")
	}
	if err := run([]string{"-hold-back", "0.5", "-release-batch", "0"}, &buf, nil); err == nil {
		t.Error("-hold-back with zero release batch accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir()}, &buf, nil); err == nil {
		t.Error("-data-dir without -analysis accepted")
	}
	if err := run([]string{"-analysis", "-data-dir", t.TempDir(), "-fsync", "sometimes"}, &buf, nil); err == nil {
		t.Error("unknown -fsync policy accepted")
	}
	if err := run([]string{"-analysis", "-data-dir", t.TempDir(), "-snapshot-every", "-1"}, &buf, nil); err == nil {
		t.Error("negative -snapshot-every accepted")
	}
	if err := run([]string{"-analysis", "-page-budget", "1024"}, &buf, nil); err == nil {
		t.Error("-page-budget without -data-dir accepted")
	}
}

// TestMarketsimDurableAnalysisRestart boots the command with a durable
// analysis endpoint, pushes a delta, shuts down, and boots again on the same
// -data-dir: the ingested state must be recovered (served and at the right
// cursor) before the first request, a replayed push must be an acked no-op,
// and /metrics must expose the durable_* gauges.
func TestMarketsimDurableAnalysisRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "state")
	boot := func(buf *bytes.Buffer) (base string, stop chan os.Signal, done chan error) {
		endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
		stop = make(chan os.Signal, 1)
		done = make(chan error, 1)
		go func() {
			done <- run([]string{
				"-apps", "40", "-developers", "18", "-seed", "11",
				"-port", "0", "-endpoints", endpointsPath,
				"-analysis", "-data-dir", dataDir, "-fsync", "always",
			}, buf, stop)
		}()
		for _, ep := range waitEndpoints(t, endpointsPath, done) {
			if ep.Name == "analysis" {
				base = ep.BaseURL
			}
		}
		if base == "" {
			t.Fatal("no analysis endpoint published")
		}
		return base, stop, done
	}
	shutdown := func(stop chan os.Signal, done chan error) {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	getCursor := func(base string) (cursor uint64, listings int) {
		resp, err := http.Get(base + "/api/ingest")
		if err != nil {
			t.Fatalf("cursor probe: %v", err)
		}
		defer resp.Body.Close()
		var cs struct {
			Cursor   uint64 `json:"cursor"`
			Listings int    `json:"listings"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
			t.Fatalf("cursor body: %v", err)
		}
		return cs.Cursor, cs.Listings
	}
	delta := `{"seq": 0, "listings": [
		{"record": {"market": "Google Play", "package": "com.example.durable",
		            "app_name": "Durable", "category": "tools", "developer_name": "dev",
		            "downloads": 100, "rating": 4.5}}]}`
	push := func(base string) (applied bool, added int) {
		resp, err := http.Post(base+"/api/ingest", "application/json", strings.NewReader(delta))
		if err != nil {
			t.Fatalf("push delta: %v", err)
		}
		defer resp.Body.Close()
		var res struct {
			Applied bool `json:"applied"`
			Added   int  `json:"added"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("delta result: %v", err)
		}
		return res.Applied, res.Added
	}

	var buf1 bytes.Buffer
	base, stop, done := boot(&buf1)
	if applied, added := push(base); !applied || added != 1 {
		t.Fatalf("first push: applied=%v added=%d", applied, added)
	}
	shutdown(stop, done)

	// Second boot on the same directory: state recovered before serving.
	var buf2 bytes.Buffer
	base, stop, done = boot(&buf2)
	if cursor, listings := getCursor(base); cursor != 1 || listings != 1 {
		t.Fatalf("recovered state: cursor %d, %d listings", cursor, listings)
	}
	// The reconnecting producer replays its batch: acked no-op.
	if applied, added := push(base); applied || added != 0 {
		t.Fatalf("replayed push: applied=%v added=%d", applied, added)
	}
	// The recovered engine serves scans immediately.
	resp, err := http.Post(base+"/api/scan", "application/json",
		strings.NewReader(`{"fields":["package"]}`))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var scan struct {
		Rows [][]any `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&scan)
	resp.Body.Close()
	if err != nil || len(scan.Rows) != 1 || scan.Rows[0][0] != "com.example.durable" {
		t.Fatalf("scan after recovery: rows %+v (err %v)", scan.Rows, err)
	}
	// Durability gauges ride /metrics; the first shutdown wrote a parting
	// snapshot at generation 1, so this boot loaded it instead of replaying.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(blob)
	for _, want := range []string{
		"durable_wal_records_replayed 0",
		"durable_last_snapshot_generation 1",
		"durable_snapshot_corrupt_quarantined 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	shutdown(stop, done)

	if !strings.Contains(buf2.String(), "durable in "+dataDir) {
		t.Errorf("missing durable banner in output:\n%s", buf2.String())
	}
}

// TestMarketsimPagedAnalysisRestart is the durable restart flow with lazy
// paging on: the first boot ingests and leaves a parting snapshot, the second
// boots with -page-budget and must recover from that snapshot without
// materializing it — serving the ingested row, advancing the paged_* gauges
// on /metrics, and shutting down cleanly.
func TestMarketsimPagedAnalysisRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "state")
	boot := func(buf *bytes.Buffer, extra ...string) (base string, stop chan os.Signal, done chan error) {
		endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
		stop = make(chan os.Signal, 1)
		done = make(chan error, 1)
		args := append([]string{
			"-apps", "40", "-developers", "18", "-seed", "11",
			"-port", "0", "-endpoints", endpointsPath,
			"-analysis", "-data-dir", dataDir, "-fsync", "always",
		}, extra...)
		go func() { done <- run(args, buf, stop) }()
		for _, ep := range waitEndpoints(t, endpointsPath, done) {
			if ep.Name == "analysis" {
				base = ep.BaseURL
			}
		}
		if base == "" {
			t.Fatal("no analysis endpoint published")
		}
		return base, stop, done
	}
	shutdown := func(stop chan os.Signal, done chan error) {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
	}

	var buf1 bytes.Buffer
	base, stop, done := boot(&buf1)
	delta := `{"seq": 0, "listings": [
		{"record": {"market": "Google Play", "package": "com.example.paged",
		            "app_name": "Paged", "category": "tools", "developer_name": "dev",
		            "downloads": 100, "rating": 4.5}}]}`
	resp, err := http.Post(base+"/api/ingest", "application/json", strings.NewReader(delta))
	if err != nil {
		t.Fatalf("push delta: %v", err)
	}
	var res struct {
		Applied bool `json:"applied"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || !res.Applied {
		t.Fatalf("push: %+v (err %v)", res, err)
	}
	shutdown(stop, done)

	// Second boot pages lazily out of the parting snapshot.
	var buf2 bytes.Buffer
	base, stop, done = boot(&buf2, "-page-budget", "-1")
	resp, err = http.Post(base+"/api/scan", "application/json",
		strings.NewReader(`{"fields":["package"]}`))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var scan struct {
		Rows [][]any `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&scan)
	resp.Body.Close()
	if err != nil || len(scan.Rows) != 1 || scan.Rows[0][0] != "com.example.paged" {
		t.Fatalf("paged scan after recovery: rows %+v (err %v)", scan.Rows, err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(blob)
	for _, want := range []string{"paged_resident_bytes", "paged_fetches", "paged_hits", "paged_evictions"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The scan forced at least one column in.
	var fetches float64
	for _, line := range strings.Split(metrics, "\n") {
		if n, err := fmt.Sscanf(line, "paged_fetches %f", &fetches); n == 1 && err == nil {
			break
		}
	}
	if fetches == 0 {
		t.Errorf("paged engine served without fetching:\n%s", metrics)
	}
	shutdown(stop, done)
}

// lockedBuffer is a bytes.Buffer that run can write while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMarketsimPprofFlag boots the command with and without -pprof: with it,
// the profile index answers on its own listener; either way, a market port
// answers /debug/pprof/ with 404.
func TestMarketsimPprofFlag(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	pprofLine := regexp.MustCompile(`(?m)^pprof\s+(http://\S+)$`)
	for _, withFlag := range []bool{true, false} {
		endpointsPath := filepath.Join(t.TempDir(), "endpoints.json")
		args := []string{"-apps", "40", "-developers", "18", "-seed", "11", "-port", "0", "-endpoints", endpointsPath}
		if withFlag {
			args = append(args, "-pprof", "127.0.0.1:0")
		}
		var out lockedBuffer
		stop := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() { done <- run(args, &out, stop) }()
		endpoints := waitEndpoints(t, endpointsPath, done)

		m := pprofLine.FindStringSubmatch(out.String())
		if withFlag != (m != nil) {
			t.Fatalf("-pprof set %v, but pprof line found %v:\n%s", withFlag, m != nil, out.String())
		}
		if withFlag {
			if code := status(m[1]); code != http.StatusOK {
				t.Errorf("pprof index %s: status %d, want 200", m[1], code)
			}
		}
		for _, ep := range endpoints {
			if code := status(ep.BaseURL + "/debug/pprof/"); code != http.StatusNotFound {
				t.Errorf("-pprof set %v: market %s answers /debug/pprof/ with %d, want 404", withFlag, ep.Name, code)
			}
		}
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
	}
}

// TestMarketsimBadPprofAddrOpensNothing gives -pprof an address that is
// already taken: run must fail before it starts a market server or opens the
// analysis endpoint's durable state.
func TestMarketsimBadPprofAddrOpensNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dataDir := t.TempDir()
	var out bytes.Buffer
	err = run([]string{"-apps", "40", "-developers", "18", "-port", "0", "-analysis",
		"-data-dir", dataDir, "-pprof", taken.Addr().String()}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "listen for pprof") {
		t.Fatalf("run with a taken -pprof address: err %v, want a pprof listen error", err)
	}
	if out.Len() != 0 {
		t.Errorf("run printed before failing (servers started?):\n%s", out.String())
	}
	if entries, err := os.ReadDir(dataDir); err != nil || len(entries) != 0 {
		t.Errorf("data dir after the failed run: %d entries (err %v), want none", len(entries), err)
	}
}
