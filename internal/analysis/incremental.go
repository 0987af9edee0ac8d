package analysis

import (
	"slices"
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/avscan"
	"marketscope/internal/libdetect"
	"marketscope/internal/permissions"
	"marketscope/internal/pipeline"
	"marketscope/internal/query"
)

// Incremental dataset builds. IngestState carries the cumulative enrichment
// artifacts — the library-feature observations and the AV verdict cache —
// across append-only batches, so each Append yields a fresh, fully enriched
// Dataset without re-parsing or re-scanning anything already ingested. The
// correctness bar is exact: the dataset (and therefore every query result)
// after N batches is identical to one cold BuildDatasetFromRecords + Enrich
// over the concatenation of all N batches, which internal/ingest's
// randomized equivalence suite asserts byte for byte.
//
// What carries over and why it is sound:
//
//   - APK parses, AV reports and permission analyses are pure functions of
//     the archive (and the fixed scanner seed/pool), so they are computed at
//     a listing's first appearance and reused verbatim in every later epoch.
//   - Library feature observations merge: FeatureDB.Merge is commutative and
//     associative, so previous observations + the delta's observations equal
//     one cold learning pass over the union. The DB is replaced copy-on-write
//     each batch — the previous epoch's detector keeps reading its own frozen
//     DB while its engine is still live.
//   - Library detections do NOT carry over blindly: they depend on the whole
//     corpus (threshold crossings, canonical-prefix flips), so every batch
//     re-detects every previously ingested listing with a parsed APK (the
//     rows the dataset keeps in apkRows; a listing without one detects
//     nothing under any DB) against the grown DB. A listing whose detections
//     are unchanged keeps its exact *App pointer — no write ever lands on an
//     App a live engine is serving — and when nothing changed, the new
//     epoch's engine is sealed from the previous one's columns via
//     query.NewEngineAppend instead of re-extracting the whole corpus.
//   - When nothing changed, the new epoch is also delta-sized: its listing
//     slice, per-market slices and APK rows are the previous epoch's, grown
//     in place into their spare capacity (claimed once per dataset, like the
//     engine's columns), and the engine shares that listing array.
type IngestState struct {
	opts EnrichOptions
	// db accumulates the feature observations of every listing ingested so
	// far; replaced copy-on-write by each Append.
	db      *libdetect.FeatureDB
	scanner *avscan.Scanner
	// scans caches AV reports by archive SHA-256 across batches: a verdict
	// is a pure function of (seed, engine pool, sample), so re-listings of
	// an already-scanned archive reuse the epoch-independent report. Written
	// only between batch pipelines, read freely inside them.
	scans map[string]*avscan.Report
}

// NewIngestState prepares incremental enrichment with the given options
// (Workers sizes every per-batch pipeline; the other knobs mean exactly what
// they mean for Enrich). The options must stay fixed for the lifetime of the
// state — they define the corpus the equivalence contract compares against.
func NewIngestState(opts EnrichOptions) *IngestState {
	if opts.Engines == 0 {
		opts.Engines = avscan.DefaultEngineCount
	}
	return &IngestState{
		opts:    opts,
		db:      libdetect.NewFeatureDB(opts.LibraryMinApps, opts.LibraryMinDevelopers),
		scanner: avscan.NewScanner(opts.ScannerSeed, opts.Engines),
		scans:   map[string]*avscan.Report{},
	}
}

// AppendStats reports what one incremental build did.
type AppendStats struct {
	// Added is the number of listings appended.
	Added int
	// Redetected counts previously ingested listings whose library
	// detections changed under the grown feature DB (each got a fresh
	// shallow App copy; the old epoch's App is untouched).
	Redetected int
	// EngineSealed reports whether the new epoch's engine was built by
	// extending the previous epoch's columns (possible exactly when
	// Redetected == 0 and the previous dataset had a built engine).
	EngineSealed bool
}

// Append builds the next epoch's dataset: prev's listings (re-detected,
// pointer-preserved where unchanged) followed by the given records, parsed
// and enriched. prev is never mutated below its own lengths — its engine
// keeps serving the old epoch — and may be nil for the first batch. apkOf
// resolves the new records' APK bytes and may be nil.
func (st *IngestState) Append(prev *Dataset, crawlTime time.Time, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) (*Dataset, AppendStats) {
	stats := AppendStats{Added: len(records)}
	workers := st.opts.Workers

	// Parse only the delta; previously ingested listings are never re-parsed.
	// One backing array serves the whole batch — later epochs copy an App out
	// of it if and only if its detections change, exactly as with individual
	// allocations.
	backing := make([]App, len(records))
	fresh := make([]*App, len(records))
	pipeline.ForEach(len(records), workers, func(i int) {
		fresh[i] = parseListingInto(&backing[i], records[i], apkOf)
	})

	// Learn copy-on-write: a fresh DB absorbs the previous observations
	// (Merge leaves its argument unchanged) plus the delta's. Commutativity
	// makes this equal to one cold learning pass over the union.
	db := libdetect.NewFeatureDB(st.opts.LibraryMinApps, st.opts.LibraryMinDevelopers)
	db.Merge(st.db)
	for _, app := range fresh {
		if app.HasAPK() {
			db.Observe(app.Parsed.Dex, app.Meta.Package, app.Parsed.Developer())
		}
	}
	st.db = db
	detector := libdetect.NewDetector(nil, db)

	// Re-detect every previously ingested listing with a parsed APK against
	// the grown DB. Unchanged detections keep the old *App; changed ones get
	// a shallow copy (Parsed, AVReport and PermUsage are archive-pure and
	// shared), recorded by its position in apkRows.
	var prevApps []*App
	var prevAPK []int32
	if prev != nil {
		prevApps, prevAPK = prev.apps, prev.apkRows
	}
	changed := make([]*App, len(prevAPK))
	pipeline.ForEach(len(prevAPK), workers, func(k int) {
		old := prevApps[prevAPK[k]]
		libs := detector.Detect(old.Parsed.Dex, old.Meta.Package)
		if !detectionsEqual(libs, old.Libraries) {
			cp := *old
			cp.Libraries = libs
			changed[k] = &cp
		}
	})
	for _, cp := range changed {
		if cp != nil {
			stats.Redetected++
		}
	}

	// Enrich the delta. st.scans reads are safe inside the pool — the map is
	// only written after it drains; unseen archives deduplicate through the
	// exactly-once batch cache.
	permAnalyzer := permissions.NewAnalyzer(nil)
	batchScans := pipeline.NewCache[*avscan.Report]()
	pipeline.ForEach(len(fresh), workers, func(i int) {
		app := fresh[i]
		if !app.HasAPK() {
			return
		}
		app.Libraries = detector.Detect(app.Parsed.Dex, app.Meta.Package)
		if report, ok := st.scans[app.Parsed.SHA256]; ok {
			app.AVReport = report
		} else {
			app.AVReport = batchScans.Do(app.Parsed.SHA256, func() *avscan.Report {
				return st.scanner.Scan(app.Parsed.SHA256, app.Parsed.Dex)
			})
		}
		app.PermUsage = permAnalyzer.Analyze(app.Parsed.Manifest, app.Parsed.Dex)
	})
	for _, app := range fresh {
		if app.HasAPK() {
			if _, ok := st.scans[app.Parsed.SHA256]; !ok {
				st.scans[app.Parsed.SHA256] = app.AVReport
			}
		}
	}

	// Assemble the new epoch: a fresh Dataset value, already enriched (the
	// pipelines above are the enrichment — a later Enrich call is a no-op).
	// Unchanged old rows make it prev's listings plus the delta's, grown in
	// place when this is the one append to claim prev; otherwise (a changed
	// row, or a second append from prev) everything is copied.
	d := &Dataset{CrawlTime: crawlTime, byMarket: map[string][]*App{}}
	inPlace := stats.Redetected == 0 && prev != nil && prev.grown.CompareAndSwap(false, true)
	apps := prevApps
	apkRows := prevAPK
	if !inPlace {
		apps = make([]*App, len(prevApps), len(prevApps)+len(fresh))
		copy(apps, prevApps)
		for k, cp := range changed {
			if cp != nil {
				apps[prevAPK[k]] = cp
			}
		}
		apkRows = slices.Clip(apkRows)
	}
	d.setApps(append(apps, fresh...))
	d.apkRows = appendAPKRows(apkRows, fresh, len(prevApps))
	if inPlace {
		for name, bucket := range prev.byMarket {
			d.byMarket[name] = bucket
		}
		for _, app := range fresh {
			d.byMarket[app.Meta.Market] = append(d.byMarket[app.Meta.Market], app)
		}
		d.attachProfiles()
	} else {
		d.attachMarkets()
	}
	d.libDetector = detector
	d.scanner = st.scanner
	d.enrichOnce.Do(func() {})
	d.enriched.Store(true)

	// Seal the engine when every old row is provably unchanged: the previous
	// epoch's built columns are then value-identical prefixes of the new
	// ones. Any change (or no built previous engine) falls back to the lazy
	// cold build in QuerySource.
	if stats.Redetected == 0 && prev != nil {
		if base := prev.builtEngine(); base != nil {
			if eng, err := query.NewEngineAppend(appFieldRegistry(d), base, d.Apps); err == nil {
				d.queryMu.Lock()
				d.querySrc = eng
				d.queryEnriched = true
				d.queryMu.Unlock()
				stats.EngineSealed = true
			}
		}
	}
	return d, stats
}

// detectionsEqual reports whether two detection slices are elementwise
// identical (Detection is a comparable struct).
func detectionsEqual(a, b []libdetect.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// builtEngine returns the dataset's cached post-enrichment engine typed for
// appending, or nil when none was built (or it predates enrichment).
func (d *Dataset) builtEngine() *query.Engine[*App] {
	d.queryMu.Lock()
	defer d.queryMu.Unlock()
	if !d.queryEnriched {
		return nil
	}
	eng, _ := d.querySrc.(*query.Engine[*App])
	return eng
}
