// Package analysis implements every measurement of the study over a crawl
// snapshot: the market overview of Table 1, the catalog characterizations of
// Section 4 (categories, downloads, API levels, release dates, third-party
// libraries, ratings), the publishing dynamics of Section 5, the misbehaviour
// analyses of Section 6 (fake apps, clones, over-privilege, malware) and the
// post-analysis of Section 7 (malware removal between crawls).
//
// The entry point is BuildDataset, which parses every harvested APK, followed
// by Enrich, which runs the third-party library detector, the permission-gap
// analyzer and the simulated VirusTotal scan once per listing so individual
// analyses can share the results. Both stages run on the internal/pipeline
// worker pool: parsing and per-listing detection fan out across workers, the
// feature-database learning pass is a sharded map/merge, and the AV scan is
// deduplicated through a sharded exactly-once cache keyed by archive SHA-256.
// The parallel output is identical to the serial one; Workers == 1 selects
// the serial reference implementation that the equivalence tests use as the
// oracle.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"marketscope/internal/apk"
	"marketscope/internal/appmeta"
	"marketscope/internal/avscan"
	"marketscope/internal/crawler"
	"marketscope/internal/libdetect"
	"marketscope/internal/market"
	"marketscope/internal/permissions"
	"marketscope/internal/pipeline"
	"marketscope/internal/query"
)

// App is one market listing with its parsed and enriched artifacts.
type App struct {
	Meta   appmeta.Record
	Parsed *apk.Parsed
	// ParseError records why the APK could not be parsed (corrupted or
	// missing download); such listings still contribute to metadata-only
	// analyses.
	ParseError error

	// Enrichment results (populated by Dataset.Enrich).
	Libraries []libdetect.Detection
	AVReport  *avscan.Report
	PermUsage *permissions.Usage
}

// HasAPK reports whether the listing's APK was parsed successfully.
func (a *App) HasAPK() bool { return a.Parsed != nil }

// Category returns the consolidated category of the listing.
func (a *App) Category() appmeta.Category {
	return appmeta.ConsolidateCategory(a.Meta.Category)
}

// DeveloperID returns the best available developer identity: the signing
// certificate fingerprint when the APK parsed, otherwise the market-reported
// developer name.
func (a *App) DeveloperID() string {
	if a.Parsed != nil {
		return a.Parsed.Developer().String()
	}
	return "name:" + a.Meta.DeveloperName
}

// Dataset is a parsed crawl snapshot ready for analysis.
type Dataset struct {
	CrawlTime time.Time
	Markets   []market.Profile
	// Apps holds every listing in dataset order. It is capacity-capped, so
	// an append to it copies instead of writing into rows a later epoch
	// owns.
	Apps []*App

	// apps is Apps with its spare capacity, and byMarket's slices keep
	// theirs: the next ingest epoch writes its rows there (IngestState.Append)
	// while this dataset reads only up to its own lengths. AppsIn caps what it
	// hands out. apkRows lists ascending the rows whose APK parsed — the
	// only listings a later epoch re-detects — and grows the same way.
	apps     []*App
	byMarket map[string][]*App
	apkRows  []int32
	// grown is claimed by the one IngestState.Append allowed to extend apps,
	// byMarket and apkRows in place; any other append from this dataset
	// copies them.
	grown atomic.Bool

	enrichOnce sync.Once
	enriched   atomic.Bool

	// Detector state shared across analyses (populated by Enrich).
	libDetector *libdetect.Detector
	scanner     *avscan.Scanner

	// Query engine over the listings (built lazily by QuerySource and
	// rebuilt after Enrich, since the engine's column caches snapshot
	// extracted values; queryEnriched records which state querySrc saw).
	queryMu       sync.Mutex
	querySrc      query.Source
	queryEnriched bool
	// libSrc is the lazily built aggregation engine over the per-listing
	// library detections (one row per deduplicated (listing, library) pair);
	// detections exist only after Enrich, so no staleness flag is needed.
	libSrc query.AggregateSource

	// chineseApps memoizes ChineseApps: the slice is rebuilt from byMarket
	// on first use and hit by several per-group analyses afterwards.
	chineseOnce sync.Once
	chineseApps []*App
}

// BuildOptions tunes the dataset build pass.
type BuildOptions struct {
	// Workers sizes the APK-parsing worker pool: 0 (or negative) means one
	// worker per CPU, 1 runs the parse loop serially. The resulting dataset
	// is identical either way — every listing parses independently and lands
	// in its snapshot-order slot.
	Workers int
	// Progress, when non-nil, is called after each listing is parsed with
	// stage "parse" and monotonically increasing done counts. Calls are
	// serialized; the callback needs no locking of its own.
	Progress func(stage string, done, total int)
}

// BuildDataset parses every APK in the snapshot and organizes the listings
// for analysis, using one parse worker per CPU. Listings whose APK is missing
// or fails to parse are kept with ParseError set, mirroring how the paper's
// metadata catalog (6.2 M apps) is larger than its APK collection (4.5 M).
func BuildDataset(snap *crawler.Snapshot) (*Dataset, error) {
	return BuildDatasetWith(snap, BuildOptions{})
}

// BuildDatasetWith is BuildDataset with explicit worker and progress knobs.
func BuildDatasetWith(snap *crawler.Snapshot, opts BuildOptions) (*Dataset, error) {
	if snap == nil {
		return nil, fmt.Errorf("analysis: nil snapshot")
	}
	return BuildDatasetFromRecords(snap.CrawlTime, snap.Records(), snap.APK, opts)
}

// BuildDatasetFromRecords builds a dataset over an explicit record slice,
// preserving the given order as the dataset order (BuildDataset passes the
// snapshot's canonical (market, package) order; incremental ingest passes
// batches in arrival order so each batch extends the previous dataset as a
// pure suffix). apkOf resolves a listing's APK bytes and may be nil when no
// archives were harvested.
func BuildDatasetFromRecords(crawlTime time.Time, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool), opts BuildOptions) (*Dataset, error) {
	d := &Dataset{
		CrawlTime: crawlTime,
		byMarket:  map[string][]*App{},
	}
	tracker := progressTracker(len(records), "parse", opts.Progress)

	// Parse in parallel: every listing owns its slot, so workers never touch
	// shared state (apkOf must be concurrency-safe, as Snapshot reads are)
	// and the slice is in record order regardless of scheduling.
	apps := make([]*App, len(records))
	pipeline.ForEach(len(records), opts.Workers, func(i int) {
		apps[i] = parseListing(records[i], apkOf)
		tracker.Tick()
	})
	d.setApps(apps)
	d.apkRows = appendAPKRows(nil, apps, 0)
	d.attachMarkets()
	return d, nil
}

// setApps installs apps as the dataset's listings, Apps capacity-capped.
func (d *Dataset) setApps(apps []*App) {
	d.apps = apps
	d.Apps = slices.Clip(apps)
}

// appendAPKRows appends to rows the positions of apps' listings whose APK
// parsed, apps[0] being row first.
func appendAPKRows(rows []int32, apps []*App, first int) []int32 {
	for i, app := range apps {
		if app.HasAPK() {
			rows = append(rows, int32(first+i))
		}
	}
	return rows
}

// parseListing builds one App: metadata always, parsed APK when apkOf has
// the archive and it parses.
// noAPKError formats lazily: metadata-only corpora mint one per listing, and
// eager fmt.Errorf for a message almost never read is measurable at 100k rows
// on both cold build and snapshot recovery.
type noAPKError struct{ market, pkg string }

func (e *noAPKError) Error() string {
	return fmt.Sprintf("analysis: no APK harvested for %s/%s", e.market, e.pkg)
}

func parseListing(rec appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) *App {
	return parseListingInto(new(App), rec, apkOf)
}

// parseListingInto parses into caller-provided storage, so a large batch can
// back all its Apps with one allocation instead of one per listing (the
// incremental path's restore cost is dominated by exactly that).
func parseListingInto(app *App, rec appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) *App {
	app.Meta = rec
	var data []byte
	var ok bool
	if apkOf != nil {
		data, ok = apkOf(rec.Key())
	}
	if !ok {
		app.ParseError = &noAPKError{market: rec.Market, pkg: rec.Package}
		return app
	}
	parsed, err := apk.Parse(data)
	if err != nil {
		app.ParseError = err
	} else {
		app.Parsed = parsed
	}
	return app
}

// attachMarkets derives byMarket and the Markets profile list from d.Apps.
func (d *Dataset) attachMarkets() {
	// Group through bucket pointers with a one-entry cache for runs of the
	// same market: large corpora hit the map roughly once per run instead of
	// twice per app, which is a measurable slice of snapshot-restore time.
	buckets := map[string]*[]*App{}
	var lastName string
	var lastB *[]*App
	for _, app := range d.Apps {
		name := app.Meta.Market
		if lastB == nil || name != lastName {
			b := buckets[name]
			if b == nil {
				b = new([]*App)
				buckets[name] = b
			}
			lastName, lastB = name, b
		}
		*lastB = append(*lastB, app)
	}
	for name, b := range buckets {
		d.byMarket[name] = *b
	}
	d.attachProfiles()
}

// attachProfiles derives the Markets profile list from byMarket's keys:
// profiles for the markets present in canonical study order first, then
// unknown markets (not part of the 17-market study, still analyzed) sorted,
// with zero-value profiles.
func (d *Dataset) attachProfiles() {
	seenMarkets := make(map[string]bool, len(d.byMarket))
	for name := range d.byMarket {
		seenMarkets[name] = true
	}
	for _, p := range market.Profiles() {
		if seenMarkets[p.Name] {
			d.Markets = append(d.Markets, p)
			delete(seenMarkets, p.Name)
		}
	}
	var extra []string
	for name := range seenMarkets {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		d.Markets = append(d.Markets, market.Profile{Name: name})
	}
}

// EnrichOptions tunes the enrichment pass.
type EnrichOptions struct {
	// ScannerSeed seeds the simulated AV engine pool.
	ScannerSeed uint64
	// Engines is the AV engine count (0 = default 62).
	Engines int
	// LibraryMinApps / LibraryMinDevelopers are the clustering thresholds
	// for learning the library feature database.
	LibraryMinApps       int
	LibraryMinDevelopers int
	// Workers sizes the enrichment worker pool: 0 (or negative) means one
	// worker per CPU; 1 selects the serial reference implementation, which
	// the equivalence tests keep as the oracle for the parallel path. Both
	// paths produce identical datasets.
	Workers int
	// Progress, when non-nil, receives serialized per-listing progress for
	// the enrichment stages ("learn": feature-database observation, "detect":
	// per-listing detections). The callback needs no locking of its own.
	Progress func(stage string, done, total int)
}

// DefaultEnrichOptions returns the options used throughout the study: one
// enrichment worker per CPU.
func DefaultEnrichOptions() EnrichOptions {
	return EnrichOptions{ScannerSeed: 1, Engines: avscan.DefaultEngineCount, LibraryMinApps: 3, LibraryMinDevelopers: 2}
}

// Enrich runs the per-listing detectors: third-party library detection (with
// a feature database learned from this very corpus, as the paper rebuilt
// LibRadar's), the permission-gap analysis and the simulated VirusTotal scan.
//
// Concurrency contract: Enrich is safe to call from multiple goroutines; the
// first caller runs the pipeline and every other caller blocks until it
// completes, so all callers return with the dataset fully enriched. Inside
// the pipeline each listing's detection fields are written by exactly one
// worker (the serialization point is the pipeline's own completion barrier),
// AV scans are deduplicated through a sharded exactly-once cache keyed by
// archive SHA-256, and the feature database is learned as a sharded
// map/merge — so the result is identical for every Workers setting. Later
// calls with different options are no-ops: the first options win.
func (d *Dataset) Enrich(opts EnrichOptions) {
	d.enrichOnce.Do(func() {
		d.enrich(opts)
		d.enriched.Store(true)
	})
}

// enrich dispatches to the serial oracle or the worker-pool implementation.
func (d *Dataset) enrich(opts EnrichOptions) {
	if opts.Engines == 0 {
		opts.Engines = avscan.DefaultEngineCount
	}
	if pipeline.Workers(opts.Workers, len(d.Apps)) == 1 {
		d.enrichSerial(opts)
		return
	}
	d.enrichParallel(opts)
}

// enrichSerial is the reference implementation: two plain O(N) passes, kept
// verbatim as the oracle the equivalence tests compare the worker pool
// against.
func (d *Dataset) enrichSerial(opts EnrichOptions) {
	learnTracker := progressTracker(len(d.Apps), "learn", opts.Progress)
	detectTracker := progressTracker(len(d.Apps), "detect", opts.Progress)

	// Pass 1: learn the library feature database from the whole corpus.
	db := libdetect.NewFeatureDB(opts.LibraryMinApps, opts.LibraryMinDevelopers)
	for _, app := range d.Apps {
		if app.HasAPK() {
			db.Observe(app.Parsed.Dex, app.Meta.Package, app.Parsed.Developer())
		}
		learnTracker.Tick()
	}
	d.libDetector = libdetect.NewDetector(nil, db)
	d.scanner = avscan.NewScanner(opts.ScannerSeed, opts.Engines)
	permAnalyzer := permissions.NewAnalyzer(nil)

	// Pass 2: per-listing detections. Scan results are cached by APK hash
	// so identical archives listed in several markets are scanned once,
	// which is also how VirusTotal deduplicates submissions.
	scanCache := map[string]*avscan.Report{}
	for _, app := range d.Apps {
		if !app.HasAPK() {
			detectTracker.Tick()
			continue
		}
		app.Libraries = d.libDetector.Detect(app.Parsed.Dex, app.Meta.Package)
		if report, ok := scanCache[app.Parsed.SHA256]; ok {
			app.AVReport = report
		} else {
			report = d.scanner.Scan(app.Parsed.SHA256, app.Parsed.Dex)
			scanCache[app.Parsed.SHA256] = report
			app.AVReport = report
		}
		app.PermUsage = permAnalyzer.Analyze(app.Parsed.Manifest, app.Parsed.Dex)
		detectTracker.Tick()
	}
}

// enrichParallel is the worker-pool implementation. Pass 1 shards the corpus
// across per-worker feature databases and merges them (FeatureDB.Merge is
// commutative, so the merged database is independent of scheduling); pass 2
// fans the per-listing detections out over the pool, with each worker writing
// only its own listing's fields and AV scans deduplicated through the shared
// exactly-once cache.
func (d *Dataset) enrichParallel(opts EnrichOptions) {
	learnTracker := progressTracker(len(d.Apps), "learn", opts.Progress)
	detectTracker := progressTracker(len(d.Apps), "detect", opts.Progress)

	// Pass 1: sharded map/merge over per-worker feature databases.
	db := pipeline.MapMerge(len(d.Apps), opts.Workers,
		func() *libdetect.FeatureDB {
			return libdetect.NewFeatureDB(opts.LibraryMinApps, opts.LibraryMinDevelopers)
		},
		func(acc *libdetect.FeatureDB, i int) {
			if app := d.Apps[i]; app.HasAPK() {
				acc.Observe(app.Parsed.Dex, app.Meta.Package, app.Parsed.Developer())
			}
			learnTracker.Tick()
		},
		func(dst, src *libdetect.FeatureDB) { dst.Merge(src) },
	)
	d.libDetector = libdetect.NewDetector(nil, db)
	d.scanner = avscan.NewScanner(opts.ScannerSeed, opts.Engines)
	permAnalyzer := permissions.NewAnalyzer(nil)

	// Pass 2: bounded worker pool over the listings. Detector, scanner and
	// analyzer are read-only after construction, so workers share them
	// without locks; the scan cache guarantees one Scan per distinct archive
	// no matter how many goroutines race on the same SHA-256.
	scanCache := pipeline.NewCache[*avscan.Report]()
	pipeline.ForEach(len(d.Apps), opts.Workers, func(i int) {
		app := d.Apps[i]
		if !app.HasAPK() {
			detectTracker.Tick()
			return
		}
		app.Libraries = d.libDetector.Detect(app.Parsed.Dex, app.Meta.Package)
		app.AVReport = scanCache.Do(app.Parsed.SHA256, func() *avscan.Report {
			return d.scanner.Scan(app.Parsed.SHA256, app.Parsed.Dex)
		})
		app.PermUsage = permAnalyzer.Analyze(app.Parsed.Manifest, app.Parsed.Dex)
		detectTracker.Tick()
	})
}

// progressTracker adapts a stage-labeled progress callback to a pipeline
// tracker; a nil callback yields a nil (no-op) tracker.
func progressTracker(total int, stage string, progress func(stage string, done, total int)) *pipeline.Tracker {
	if progress == nil {
		return nil
	}
	return pipeline.NewTracker(total, func(done, total int) { progress(stage, done, total) })
}

// Enriched reports whether Enrich has completed. It is safe to call
// concurrently with Enrich.
func (d *Dataset) Enriched() bool { return d.enriched.Load() }

// LibraryDetector returns the detector built during enrichment (nil before
// Enrich).
func (d *Dataset) LibraryDetector() *libdetect.Detector { return d.libDetector }

// MarketNames returns the market names present, Google Play first if present,
// then the canonical Table 1 order.
func (d *Dataset) MarketNames() []string {
	out := make([]string, 0, len(d.Markets))
	for _, m := range d.Markets {
		out = append(out, m.Name)
	}
	return out
}

// AppsIn returns the listings of one market, capacity-capped like Apps.
func (d *Dataset) AppsIn(marketName string) []*App { return slices.Clip(d.byMarket[marketName]) }

// NumListings returns the total number of listings.
func (d *Dataset) NumListings() int { return len(d.Apps) }

// ChineseApps returns all listings hosted by Chinese markets. The slice is
// built once (the dataset's market partition is immutable after
// BuildDataset) and shared by every caller; callers must not mutate it.
func (d *Dataset) ChineseApps() []*App {
	d.chineseOnce.Do(func() {
		for _, m := range d.Markets {
			if m.IsChinese() {
				d.chineseApps = append(d.chineseApps, d.byMarket[m.Name]...)
			}
		}
	})
	return d.chineseApps
}

// GooglePlayApps returns the Google Play listings, capacity-capped like Apps.
func (d *Dataset) GooglePlayApps() []*App { return d.AppsIn(market.GooglePlay) }

// PackagesByMarket returns market -> set of packages, used by several
// cross-market analyses.
func (d *Dataset) PackagesByMarket() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for name, apps := range d.byMarket {
		set := map[string]bool{}
		for _, a := range apps {
			set[a.Meta.Package] = true
		}
		out[name] = set
	}
	return out
}

// mustEnrich panics if Enrich has not completed; analyses that depend on
// detections call it so misuse fails loudly instead of silently returning
// zeros.
func (d *Dataset) mustEnrich() {
	if !d.enriched.Load() {
		panic("analysis: Enrich must be called before detector-backed analyses")
	}
}
