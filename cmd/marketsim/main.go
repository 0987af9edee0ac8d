// Command marketsim generates a synthetic ecosystem and serves every market
// over HTTP on consecutive loopback ports so that an external crawler (the
// crawler command, or any HTTP client) can harvest it.
//
// Usage:
//
//	marketsim [-apps N] [-developers N] [-seed S] [-port 8100] [-endpoints FILE]
//	          [-cache-bytes N] [-timeout D] [-max-inflight N] [-queue N]
//	          [-rate R] [-gzip=false]
//	          [-analysis] [-hold-back F] [-release-every D] [-release-batch N]
//	          [-data-dir DIR] [-fsync always|interval|off] [-fsync-interval D]
//	          [-snapshot-every N] [-page-budget BYTES]
//	          [-pprof ADDR]
//
// With -port 0 every market binds an ephemeral port instead of a consecutive
// range, which is what the smoke tests use to avoid port collisions.
//
// Each market serves through the production serving layer: a query-result
// cache, per-request timeouts, an inflight cap with bounded queueing (503 +
// Retry-After when saturated), optional per-client rate limiting and gzip.
// /healthz and /metrics (Prometheus text format) are mounted on every
// market, and a per-market serving summary prints on shutdown.
//
// -analysis additionally serves an "analysis" endpoint: a scan/aggregate
// server fed exclusively through POSTed listing deltas on /api/ingest (see
// internal/ingest). Each accepted delta builds the next dataset epoch
// incrementally and publishes its engine with an atomic source swap, so the
// crawler command's -ingest/-watch flags can stream crawls into a live query
// service with no restarts.
//
// -data-dir makes the analysis endpoint durable: every accepted delta is
// appended to a write-ahead log under DIR before it is acknowledged, periodic
// checksummed snapshots of the sealed column store bound replay time, and a
// restart with the same -data-dir recovers the exact ingested state (cold
// start = newest valid snapshot + WAL tail) before serving. -fsync picks the
// WAL durability/throughput trade-off and -snapshot-every the snapshot
// cadence; see internal/durable. The endpoint's /metrics additionally exposes
// the durable_* recovery and snapshot gauges.
//
// -page-budget serves a recovered corpus bigger than RAM: snapshot columns
// stay on disk and page in on first touch, with at most BYTES of decoded
// column data resident (scans in flight always complete — their pinned
// working set is exempt). A request whose working set cannot be pinned, or
// whose column fetch still fails after two retries, degrades to a clean 503
// with Retry-After rather than a wrong answer. 0 (the default) materializes
// everything eagerly; negative pages lazily without a bound. Requires
// -data-dir. The endpoint's /metrics exposes the paged_* residency and fault
// gauges.
//
// On SIGINT/SIGTERM the process stops accepting connections, drains in-flight
// requests under a deadline, then flushes the WAL and writes a parting
// snapshot before exiting — a restart with the same -data-dir recovers every
// acknowledged delta.
//
// -pprof ADDR serves the net/http/pprof profiles under /debug/pprof/ on a
// listener and mux of their own at ADDR, never on a market port; it is off
// by default.
//
// -hold-back withholds a fraction of every market's catalog at startup and
// releases it in batches while the process serves (-release-every,
// -release-batch), turning the static snapshot into a growing feed — the
// scenario the incremental ingest path exists for.
//
// The endpoint list (market name and base URL, JSON) is printed to stdout and
// optionally written to a file that the crawler command accepts directly.
// The process serves until interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/crawler"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/report"
	"marketscope/internal/synth"
)

// drainTimeout bounds the graceful-shutdown drain: in-flight requests get
// this long to finish after the listener stops accepting.
const drainTimeout = 5 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "marketsim:", err)
		os.Exit(1)
	}
}

// heldListing is one listing withheld from its store at startup, waiting for
// the release ticker.
type heldListing struct {
	store *market.Store
	meta  appmeta.Record
	apk   []byte
}

// run serves the generated ecosystem until stop delivers a value (or, when
// stop is nil, until the process receives SIGINT/SIGTERM). Tests pass their
// own stop channel and a buffer for stdout.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("marketsim", flag.ContinueOnError)
	apps := fs.Int("apps", 600, "number of distinct apps to generate")
	developers := fs.Int("developers", 220, "number of developer identities")
	seed := fs.Uint64("seed", 20170815, "generation seed")
	port := fs.Int("port", 8100, "first listening port; each market uses the next port (0 = ephemeral ports)")
	endpointsPath := fs.String("endpoints", "", "write the endpoint list (JSON) to this file")
	defaults := market.DefaultServeConfig()
	cacheBytes := fs.Int64("cache-bytes", defaults.CacheBytes, "per-market query-result cache budget in bytes (0 = cache off)")
	timeout := fs.Duration("timeout", defaults.Timeout, "per-request execution deadline (0 = none)")
	maxInflight := fs.Int("max-inflight", defaults.MaxInflight, "concurrent requests per market before queueing (0 = unlimited)")
	queue := fs.Int("queue", defaults.MaxQueue, "requests queued beyond max-inflight before shedding with 503")
	rate := fs.Float64("rate", defaults.RatePerSecond, "per-client request rate limit in req/s (0 = off)")
	gzipOn := fs.Bool("gzip", defaults.Gzip, "gzip-compress responses for clients that accept it")
	analysisOn := fs.Bool("analysis", false, "serve an analysis endpoint fed by listing deltas POSTed to /api/ingest")
	dataDir := fs.String("data-dir", "", "durable state directory for the analysis endpoint: WAL + snapshots, recovered on restart (requires -analysis)")
	fsyncMode := fs.String("fsync", "always", "WAL sync policy with -data-dir: always (ack = durable), interval (periodic), off (page cache only)")
	fsyncEvery := fs.Duration("fsync-interval", 100*time.Millisecond, "WAL sync period with -fsync=interval")
	snapshotEvery := fs.Int("snapshot-every", 64, "write a column-store snapshot every N applied deltas with -data-dir (0 = only at shutdown)")
	pageBudget := fs.Int64("page-budget", 0, "resident byte budget for lazily paged snapshot columns with -data-dir (0 = materialize eagerly, negative = page without a bound)")
	holdBack := fs.Float64("hold-back", 0, "fraction of each market's catalog withheld at startup and released while serving (0..0.9)")
	releaseEvery := fs.Duration("release-every", 5*time.Second, "interval between releases of held-back listings")
	releaseBatch := fs.Int("release-batch", 25, "held-back listings released per interval")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof at this address, on its own listener (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *holdBack < 0 || *holdBack > 0.9 {
		return fmt.Errorf("-hold-back %g out of range [0, 0.9]", *holdBack)
	}
	if *holdBack > 0 && (*releaseEvery <= 0 || *releaseBatch <= 0) {
		return fmt.Errorf("-hold-back needs positive -release-every and -release-batch")
	}
	if *dataDir != "" && !*analysisOn {
		return fmt.Errorf("-data-dir requires -analysis")
	}
	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	if *snapshotEvery < 0 {
		return fmt.Errorf("-snapshot-every %d must be >= 0", *snapshotEvery)
	}
	if *pageBudget != 0 && *dataDir == "" {
		return fmt.Errorf("-page-budget requires -data-dir")
	}
	// The pprof listener opens before any market server or durable state, so
	// a taken or malformed address fails the run with nothing to tear down.
	// Once its server has started, Shutdown closes it first and the deferred
	// Close does nothing.
	var pprofLn net.Listener
	if *pprofAddr != "" {
		if pprofLn, err = net.Listen("tcp", *pprofAddr); err != nil {
			return fmt.Errorf("listen for pprof: %w", err)
		}
		defer pprofLn.Close()
	}
	serveCfg := market.ServeConfig{
		CacheBytes:    *cacheBytes,
		Timeout:       *timeout,
		MaxInflight:   *maxInflight,
		MaxQueue:      *queue,
		RatePerSecond: *rate,
		Gzip:          *gzipOn,
	}

	cfg := synth.DefaultConfig()
	cfg.NumApps = *apps
	cfg.NumDevelopers = *developers
	cfg.Seed = *seed
	eco, err := synth.Generate(cfg)
	if err != nil {
		return fmt.Errorf("generate ecosystem: %w", err)
	}
	stores, err := eco.Populate()
	if err != nil {
		return fmt.Errorf("populate markets: %w", err)
	}

	names := make([]string, 0, len(stores))
	for name := range stores {
		names = append(names, name)
	}
	sort.Strings(names)

	// Withhold the tail of each catalog (in insertion order, so the released
	// listings arrive in the same popularity order Populate used).
	var held []heldListing
	if *holdBack > 0 {
		for _, name := range names {
			rebuilt, withheld, err := withholdSuffix(stores[name], *holdBack)
			if err != nil {
				return fmt.Errorf("hold back %s: %w", name, err)
			}
			stores[name] = rebuilt
			held = append(held, withheld...)
		}
	}

	var (
		wg        sync.WaitGroup
		servers   []*http.Server
		markets   []*market.Server
		endpoints []crawler.Endpoint
	)
	listen := func(i int) (net.Listener, error) {
		addr := fmt.Sprintf("127.0.0.1:%d", *port+i)
		if *port == 0 {
			addr = "127.0.0.1:0"
		}
		return net.Listen("tcp", addr)
	}
	serve := func(name string, ms *market.Server, ln net.Listener) string {
		markets = append(markets, ms)
		srv := &http.Server{Handler: ms, ReadHeaderTimeout: 5 * time.Second}
		servers = append(servers, srv)
		base := "http://" + ln.Addr().String()
		endpoints = append(endpoints, crawler.Endpoint{Name: name, BaseURL: base})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "marketsim: %s: %v\n", name, err)
			}
		}()
		return base
	}
	for i, name := range names {
		ln, err := listen(i)
		if err != nil {
			return fmt.Errorf("listen for %s: %w", name, err)
		}
		ms := market.NewServer(stores[name])
		ms.ConfigureServing(serveCfg)
		base := serve(name, ms, ln)
		fmt.Fprintf(stdout, "%-16s %s  (%d apps)\n", name, base, stores[name].Len())
	}

	var closeAnalysis func() error
	if *analysisOn {
		ln, err := listen(len(names))
		if err != nil {
			return fmt.Errorf("listen for analysis: %w", err)
		}
		as, closer, err := newAnalysisServer(serveCfg, analysisConfig{
			dataDir:       *dataDir,
			fsync:         fsyncPolicy,
			fsyncInterval: *fsyncEvery,
			snapshotEvery: *snapshotEvery,
			pageBudget:    *pageBudget,
		})
		if err != nil {
			return err
		}
		closeAnalysis = closer
		base := serve("analysis", as, ln)
		if *dataDir != "" {
			fmt.Fprintf(stdout, "%-16s %s  (ingest at %s, durable in %s)\n", "analysis", base, ingest.IngestPath, *dataDir)
		} else {
			fmt.Fprintf(stdout, "%-16s %s  (ingest at %s)\n", "analysis", base, ingest.IngestPath)
		}
	}

	if pprofLn != nil {
		srv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(pprofLn); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "marketsim: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "%-16s http://%s/debug/pprof/\n", "pprof", pprofLn.Addr())
	}

	blob, err := json.MarshalIndent(endpoints, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(blob))
	if *endpointsPath != "" {
		if err := writeFileAtomic(*endpointsPath, blob); err != nil {
			return fmt.Errorf("write endpoints: %w", err)
		}
	}
	fmt.Fprintf(stdout, "serving %d markets with %d listings; Ctrl-C to stop\n", len(stores), eco.NumListings())
	if len(held) > 0 {
		fmt.Fprintf(stdout, "holding back %d listings, releasing %d every %s\n", len(held), *releaseBatch, *releaseEvery)
	}

	// The release ticker drip-feeds the held-back listings back into their
	// stores, so crawls observe a growing catalog.
	done := make(chan struct{})
	var releaseWG sync.WaitGroup
	if len(held) > 0 {
		releaseWG.Add(1)
		go func() {
			defer releaseWG.Done()
			ticker := time.NewTicker(*releaseEvery)
			defer ticker.Stop()
			for len(held) > 0 {
				select {
				case <-done:
					return
				case <-ticker.C:
				}
				n := *releaseBatch
				if n > len(held) {
					n = len(held)
				}
				for _, h := range held[:n] {
					if err := h.store.Add(h.meta, h.apk); err != nil {
						fmt.Fprintf(os.Stderr, "marketsim: release %s: %v\n", h.meta.Package, err)
					}
				}
				held = held[n:]
			}
		}()
	}

	if stop == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		stop = ch
	}
	<-stop
	close(done)
	releaseWG.Wait()

	// Graceful shutdown, in order: stop accepting and drain in-flight
	// requests under a deadline (http.Server.Shutdown), and only after every
	// handler has returned — no acks can still be in flight — flush the WAL
	// and write the parting snapshot (closeAnalysis). A drain that overruns
	// the deadline abandons the stragglers' connections but still loses no
	// acknowledged delta: an ack implies the WAL append already happened.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	for _, srv := range servers {
		_ = srv.Shutdown(ctx)
	}
	wg.Wait()
	if closeAnalysis != nil {
		if err := closeAnalysis(); err != nil {
			fmt.Fprintf(os.Stderr, "marketsim: close analysis state: %v\n", err)
		}
	}

	for i, ep := range endpoints {
		if st := markets[i].ServingStats(); st.Requests > 0 {
			fmt.Fprint(stdout, report.ServeStats(ep.Name, st))
		}
	}
	return nil
}

// writeFileAtomic writes data to a temporary file beside path and renames it
// into place, so a client polling for path never reads a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pprofMux routes the net/http/pprof handlers on a mux of its own. Importing
// the package also registers them on http.DefaultServeMux, which marketsim
// never serves.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// withholdSuffix rebuilds a store without the trailing fraction of its
// catalog and returns the withheld listings in release order.
func withholdSuffix(store *market.Store, fraction float64) (*market.Store, []heldListing, error) {
	pkgs := store.Packages()
	n := int(float64(len(pkgs)) * fraction)
	if n >= len(pkgs) && n > 0 {
		n = len(pkgs) - 1
	}
	if n <= 0 {
		return store, nil, nil
	}
	fresh := market.NewStore(store.Profile())
	var withheld []heldListing
	for i, pkg := range pkgs {
		l, ok := store.Get(pkg)
		if !ok {
			return nil, nil, fmt.Errorf("listing %s vanished", pkg)
		}
		if i < len(pkgs)-n {
			if err := fresh.Add(l.Meta, l.APK); err != nil {
				return nil, nil, err
			}
			continue
		}
		withheld = append(withheld, heldListing{store: fresh, meta: l.Meta, apk: l.APK})
	}
	return fresh, withheld, nil
}

// analysisConfig carries the durability knobs for the analysis endpoint; an
// empty dataDir keeps the endpoint in-memory only.
type analysisConfig struct {
	dataDir       string
	fsync         durable.FsyncPolicy
	fsyncInterval time.Duration
	snapshotEvery int
	pageBudget    int64
}

// newAnalysisServer builds the delta-fed analysis endpoint: a market.Server
// with no catalog of its own, serving scan/aggregate over whatever the
// ingestor has published (an empty engine before the first delta) and
// accepting deltas on /api/ingest. With a data directory the ingestor is
// wrapped in a durable store — previously ingested state is recovered before
// the first request, every ack is backed by the WAL, and the returned closer
// persists a final snapshot on shutdown.
func newAnalysisServer(serveCfg market.ServeConfig, cfg analysisConfig) (*market.Server, func() error, error) {
	srv := market.NewServer(market.NewStore(market.Profile{Name: "analysis"}))
	attachEmpty := func() error {
		empty, err := analysis.BuildDatasetFromRecords(time.Now(), nil, nil, analysis.BuildOptions{})
		if err != nil {
			return fmt.Errorf("analysis server: %w", err)
		}
		empty.Enrich(analysis.DefaultEnrichOptions())
		srv.AttachScan(empty.QuerySource())
		return nil
	}
	ingOpts := ingest.Options{
		Enrich:    analysis.DefaultEnrichOptions(),
		CrawlTime: time.Now(),
		Publish:   func(d *analysis.Dataset) { srv.SwapSource(d.QuerySource()) },
	}

	if cfg.dataDir == "" {
		if err := attachEmpty(); err != nil {
			return nil, nil, err
		}
		ing := ingest.New(ingOpts)
		srv.AttachPost(ingest.IngestPath, ingest.Handler(ing))
		srv.ConfigureServing(serveCfg)
		return srv, nil, nil
	}

	store, err := durable.Open(durable.Options{
		Dir:           cfg.dataDir,
		Fsync:         cfg.fsync,
		FsyncInterval: cfg.fsyncInterval,
		SnapshotEvery: cfg.snapshotEvery,
		PageBudget:    cfg.pageBudget,
		Ingest:        ingOpts,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("open durable analysis state: %w", err)
	}
	// Recovery does not publish; attach whatever state survived (or the empty
	// engine on a fresh directory) before the first request can race it.
	if ds := store.Dataset(); ds != nil {
		srv.AttachScan(ds.QuerySource())
	} else if err := attachEmpty(); err != nil {
		store.Close()
		return nil, nil, err
	}
	srv.AttachPost(ingest.IngestPath, ingest.Handler(store))
	srv.ConfigureServing(serveCfg)
	store.Metrics().Register(srv.MetricsRegistry())
	closer := func() error {
		var serr error
		if store.Dataset() != nil {
			// A parting snapshot makes the next cold start O(snapshot load)
			// instead of O(full WAL replay). Best effort: the WAL already
			// holds everything acknowledged.
			serr = store.WriteSnapshot()
		}
		if cerr := store.Close(); cerr != nil {
			return cerr
		}
		return serr
	}
	return srv, closer, nil
}
