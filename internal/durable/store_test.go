package durable_test

// Lifecycle and recovery tests for the durable store, all against the errfs
// in-memory filesystem: reopen equivalence, snapshot fallback and quarantine,
// generation pruning, WAL wedging, the weaker in-place WAL corruption
// contract, and the /metrics integration. The adversarial crash-at-every-
// failpoint suite lives in torture_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/crawler"
	"marketscope/internal/durable"
	"marketscope/internal/durable/errfs"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// corpus builds one small synthetic crawl (with APK bytes) shared by every
// test in the package, pre-partitioned into deterministic deltas.
var (
	corpusOnce   sync.Once
	corpusTime   time.Time
	corpusDeltas []ingest.Delta
	corpusErr    error
)

func deltas(t testing.TB) ([]ingest.Delta, time.Time) {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := synth.SmallConfig()
		cfg.NumApps = 60
		cfg.NumDevelopers = 25
		eco, err := synth.Generate(cfg)
		if err != nil {
			corpusErr = err
			return
		}
		stores, err := eco.Populate()
		if err != nil {
			corpusErr = err
			return
		}
		snap, err := crawler.SnapshotFromStores(stores, true, cfg.CrawlDate)
		if err != nil {
			corpusErr = err
			return
		}
		corpusTime = snap.CrawlTime
		records := snap.Records()
		rng := rand.New(rand.NewSource(42))
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
		var seq uint64
		for off := 0; off < len(records); {
			if seq == 2 {
				// One empty batch: the cursor advances with no listings.
				corpusDeltas = append(corpusDeltas, ingest.Delta{Seq: seq})
				seq++
				continue
			}
			size := 8
			if size > len(records)-off {
				size = len(records) - off
			}
			d := ingest.Delta{Seq: seq}
			for _, rec := range records[off : off+size] {
				l := ingest.Listing{Record: rec}
				if data, ok := snap.APK(rec.Key()); ok {
					l.APK = data
				}
				d.Listings = append(d.Listings, l)
			}
			// A duplicate listing inside the batch: skipped on first apply,
			// and must be skipped identically on every replay.
			if seq == 1 {
				d.Listings = append(d.Listings, d.Listings[0])
			}
			corpusDeltas = append(corpusDeltas, d)
			off += size
			seq++
		}
	})
	if corpusErr != nil {
		t.Fatalf("corpus: %v", corpusErr)
	}
	return corpusDeltas, corpusTime
}

func ingestOpts(crawlTime time.Time) ingest.Options {
	return ingest.Options{Enrich: analysis.DefaultEnrichOptions(), CrawlTime: crawlTime}
}

// oracleSource replays deltas[:upTo] through a fresh in-memory ingestor —
// the ground truth any recovered store must be byte-identical to.
var (
	oracleMu    sync.Mutex
	oracleCache = map[uint64]query.Source{}
)

func oracleSource(t testing.TB, upTo uint64) query.Source {
	t.Helper()
	oracleMu.Lock()
	defer oracleMu.Unlock()
	if src, ok := oracleCache[upTo]; ok {
		return src
	}
	ds, crawlTime := deltas(t)
	ing := ingest.New(ingestOpts(crawlTime))
	for _, d := range ds[:upTo] {
		if _, err := ing.Apply(d); err != nil {
			t.Fatalf("oracle apply seq %d: %v", d.Seq, err)
		}
	}
	var src query.Source
	if ing.Dataset() != nil {
		src = ing.Dataset().QuerySource()
	}
	oracleCache[upTo] = src
	return src
}

func canonical(t testing.TB, res *query.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Fields []query.FieldInfo `json:"fields"`
		Rows   [][]any           `json:"rows"`
		Total  int               `json:"total"`
	}{res.Fields, res.Rows, res.Meta.TotalMatched})
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// batteryQueries is the fixed scan battery recovered state is judged on:
// full dump, dictionary-indexed equality, range + sort, substring, null
// probe on a nullable APK field.
func batteryQueries() []query.Query {
	return []query.Query{
		{},
		{Fields: []string{"package", "market"}, Filters: []query.Filter{{Field: "market", Op: query.OpEq, Value: "Tencent Myapp"}}},
		{Fields: []string{"package", "downloads", "rating"},
			Filters: []query.Filter{{Field: "downloads", Op: query.OpGt, Value: 1000}},
			Sort:    []query.SortKey{{Field: "rating", Desc: true}, {Field: "package"}}, Limit: 25},
		{Fields: []string{"package", "app_name"}, Filters: []query.Filter{{Field: "app_name", Op: query.OpContains, Value: "a"}}},
		{Fields: []string{"package", "apk_size"}, Filters: []query.Filter{{Field: "apk_size", Op: query.OpIsNull, Value: false}}},
	}
}

// requireSameState runs the battery on both sources and requires
// byte-identical answers — every query must succeed on want, and so on got;
// it also cross-checks got's planned scans against its own row-at-a-time
// oracle, which catches item/column divergence a source-to-source
// comparison could miss.
func requireSameState(t testing.TB, got, want query.Source) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("source presence mismatch: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	type oracler interface {
		ScanOracle(query.Query) (*query.Result, error)
	}
	for i, q := range batteryQueries() {
		gr, gerr := got.Scan(q)
		wr, werr := want.Scan(q)
		if werr != nil {
			t.Fatalf("battery %d: the oracle side failed: %v", i, werr)
		}
		if gerr != nil {
			t.Fatalf("battery %d: %v", i, gerr)
		}
		if g, w := canonical(t, gr), canonical(t, wr); !bytes.Equal(g, w) {
			t.Fatalf("battery %d diverged:\n got %.300s\nwant %.300s", i, g, w)
		}
		if o, ok := got.(oracler); ok {
			or, oerr := o.ScanOracle(q)
			if oerr != nil {
				t.Fatalf("battery %d: oracle scan: %v", i, oerr)
			}
			if g, w := canonical(t, gr), canonical(t, or); !bytes.Equal(g, w) {
				t.Fatalf("battery %d: planned scan disagrees with its own oracle:\n got %.300s\nwant %.300s", i, g, w)
			}
		}
	}
	ga, gok := got.(query.AggregateSource)
	wa, wok := want.(query.AggregateSource)
	if gok != wok {
		t.Fatalf("aggregate support mismatch: got %v want %v", gok, wok)
	}
	if gok {
		agg := query.Aggregate{
			GroupBy: []string{"market"},
			Aggregates: []query.AggSpec{
				{Op: query.AggCount, As: "n"},
				{Op: query.AggSum, Field: "downloads", As: "dl"},
			},
			Sort: []query.SortKey{{Field: "n", Desc: true}, {Field: "market"}},
		}
		gr, gerr := ga.Aggregate(agg)
		wr, werr := wa.Aggregate(agg)
		if gerr != nil || werr != nil {
			t.Fatalf("aggregate errors: got %v want %v", gerr, werr)
		}
		if g, w := canonical(t, gr), canonical(t, wr); !bytes.Equal(g, w) {
			t.Fatalf("aggregate diverged:\n got %.300s\nwant %.300s", g, w)
		}
	}
}

func sourceOf(s *durable.Store) query.Source {
	if s.Dataset() == nil {
		return nil
	}
	return s.Dataset().QuerySource()
}

func storeOpts(fsys durable.FS, crawlTime time.Time) durable.Options {
	return durable.Options{
		FS: fsys, Dir: "data",
		Ingest: ingestOpts(crawlTime),
	}
}

func openStore(t testing.TB, opts durable.Options) *durable.Store {
	t.Helper()
	s, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

func applyAll(t testing.TB, s *durable.Store, ds []ingest.Delta) {
	t.Helper()
	for _, d := range ds {
		if res, err := s.Apply(d); err != nil || !res.Applied {
			t.Fatalf("apply seq %d: res=%+v err=%v", d.Seq, res, err)
		}
	}
}

func TestStoreEmptyColdStart(t *testing.T) {
	fs := errfs.New()
	_, crawlTime := deltas(t)
	s := openStore(t, storeOpts(fs, crawlTime))
	if s.Cursor() != 0 || s.Dataset() != nil {
		t.Fatalf("fresh store: cursor %d dataset %v", s.Cursor(), s.Dataset())
	}
	if res, err := s.Apply(ingest.Delta{Seq: 0}); err != nil || !res.Applied || res.Cursor != 1 {
		t.Fatalf("empty delta: %+v %v", res, err)
	}
	s.Close()
	s2 := openStore(t, storeOpts(fs, crawlTime))
	defer s2.Close()
	if s2.Cursor() != 1 || s2.Dataset() != nil {
		t.Fatalf("reopened: cursor %d dataset %v", s2.Cursor(), s2.Dataset())
	}
	if s2.Metrics().WALRecordsReplayed.Load() != 1 {
		t.Fatalf("replayed %d records", s2.Metrics().WALRecordsReplayed.Load())
	}
}

func TestStoreReopenMatchesOracle(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds)
	live := sourceOf(s)
	s.Close()

	// WAL-only recovery (no snapshot yet).
	s2 := openStore(t, storeOpts(fs, crawlTime))
	if s2.Cursor() != uint64(len(ds)) {
		t.Fatalf("recovered cursor %d, want %d", s2.Cursor(), len(ds))
	}
	if n := s2.Metrics().WALRecordsReplayed.Load(); n != int64(len(ds)) {
		t.Fatalf("replayed %d records, want %d", n, len(ds))
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
	requireSameState(t, sourceOf(s2), live)

	// Snapshot, reopen: columns come from the snapshot, tail is empty.
	if err := s2.WriteSnapshot(); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if g := s2.Metrics().LastSnapshotGeneration.Load(); g != uint64(len(ds)) {
		t.Fatalf("snapshot generation %d", g)
	}
	s2.Close()
	s3 := openStore(t, storeOpts(fs, crawlTime))
	defer s3.Close()
	if n := s3.Metrics().WALRecordsReplayed.Load(); n != 0 {
		t.Fatalf("replayed %d records after snapshot, want 0", n)
	}
	if s3.Metrics().SnapshotLoadSeconds() <= 0 {
		t.Fatal("snapshot load seconds not recorded")
	}
	requireSameState(t, sourceOf(s3), oracleSource(t, uint64(len(ds))))

	// A replayed batch after restart is an acked no-op, never double-applied.
	before := s3.Dataset().NumListings()
	res, err := s3.Apply(ds[len(ds)-1])
	if err != nil || res.Applied || res.Cursor != uint64(len(ds)) {
		t.Fatalf("replay after restart: %+v %v", res, err)
	}
	if s3.Dataset().NumListings() != before {
		t.Fatal("replay after restart grew the dataset")
	}
	// A gapped batch still 409s at the ingest layer's contract.
	if _, err := s3.Apply(ingest.Delta{Seq: uint64(len(ds)) + 3}); !errors.Is(err, ingest.ErrCursorGap) {
		t.Fatalf("gap after restart: %v", err)
	}
}

func TestSnapshotMidStreamThenMoreBatches(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	half := len(ds) / 2
	applyAll(t, s, ds[:half])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	applyAll(t, s, ds[half:])
	s.Close()

	s2 := openStore(t, storeOpts(fs, crawlTime))
	defer s2.Close()
	if n := s2.Metrics().WALRecordsReplayed.Load(); n != int64(len(ds)-half) {
		t.Fatalf("tail replayed %d records, want %d", n, len(ds)-half)
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

func TestSnapshotQuarantineAndFallback(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	half := len(ds) / 2
	applyAll(t, s, ds[:half])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot 1: %v", err)
	}
	applyAll(t, s, ds[half:])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot 2: %v", err)
	}
	s.Close()

	corruptSnap := func(name string) {
		blob, err := fs.ReadFile("data/" + name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		blob[len(blob)/3] ^= 0x10
		if err := fs.WriteFile("data/"+name, blob); err != nil {
			t.Fatal(err)
		}
	}
	snapName := func(cursor int) string {
		return fmt.Sprintf("snap-%016x.snap", cursor)
	}

	// Newest snapshot corrupt: quarantined, previous generation + WAL tail
	// recovers the full state.
	corruptSnap(snapName(len(ds)))
	s2 := openStore(t, storeOpts(fs, crawlTime))
	if n := s2.Metrics().SnapshotCorruptQuarantined.Load(); n != 1 {
		t.Fatalf("quarantined %d, want 1", n)
	}
	if g := s2.Metrics().LastSnapshotGeneration.Load(); g != uint64(half) {
		t.Fatalf("recovered from generation %d, want %d", g, half)
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
	s2.Close()
	names, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(names, snapName(len(ds))+".corrupt") {
		t.Fatalf("no quarantine file in %v", names)
	}

	// Both snapshots corrupt: cold WAL rebuild, still byte-identical.
	corruptSnap(snapName(half))
	s3 := openStore(t, storeOpts(fs, crawlTime))
	defer s3.Close()
	if n := s3.Metrics().SnapshotCorruptQuarantined.Load(); n != 1 {
		t.Fatalf("second open quarantined %d, want 1", n)
	}
	if n := s3.Metrics().WALRecordsReplayed.Load(); n != int64(len(ds)) {
		t.Fatalf("cold rebuild replayed %d, want %d", n, len(ds))
	}
	requireSameState(t, sourceOf(s3), oracleSource(t, uint64(len(ds))))
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestSnapshotCadenceAndPruning(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	opts := storeOpts(fs, crawlTime)
	opts.SnapshotEvery = 1 // snapshot after every batch
	s := openStore(t, opts)
	applyAll(t, s, ds)
	if err := s.Err(); err != nil {
		t.Fatalf("cadence snapshot failed: %v", err)
	}
	s.Close()
	names, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".snap") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("kept %d snapshots (%v), want 2", snaps, names)
	}
	s2 := openStore(t, storeOpts(fs, crawlTime))
	defer s2.Close()
	if n := s2.Metrics().WALRecordsReplayed.Load(); n != 0 {
		t.Fatalf("replayed %d with a current snapshot", n)
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

func TestStoreWedgesAfterWALError(t *testing.T) {
	ds, crawlTime := deltas(t)
	inj := errfs.NewInjector(errfs.New())
	s := openStore(t, storeOpts(inj, crawlTime))
	applyAll(t, s, ds[:2])
	acked := s.Cursor()

	// Fail the next WAL append (one transient error, filesystem fine after).
	inj.Arm(len(inj.Log()), errfs.ModeErr, nil)
	if _, err := s.Apply(ds[2]); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("apply over failed WAL: %v", err)
	}
	if s.Cursor() != acked {
		t.Fatal("failed commit advanced the cursor")
	}
	// The WAL is wedged: even with the fault gone, ingest fails fast...
	if _, err := s.Apply(ds[2]); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("wedged store accepted a batch: %v", err)
	}
	// ...while reads keep serving the last good state.
	requireSameState(t, sourceOf(s), oracleSource(t, acked))
	s.Close()

	// A restart recovers the acked prefix and accepts the batch again.
	s2 := openStore(t, storeOpts(inj.Base, crawlTime))
	defer s2.Close()
	if s2.Cursor() != acked {
		t.Fatalf("recovered cursor %d, want %d", s2.Cursor(), acked)
	}
	applyAll(t, s2, ds[acked:])
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

// TestWALBitFlipWeakerContract pins the documented weaker guarantee for
// in-place WAL corruption: a flipped bit mid-log reads as a torn tail there,
// so recovery serves a clean prefix (never partial or corrupt state) and the
// truncation is counted.
func TestWALBitFlipWeakerContract(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds)
	s.Close()

	blob, err := fs.ReadFile("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := fs.WriteFile("data/wal.log", blob); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, storeOpts(fs, crawlTime))
	defer s2.Close()
	if s2.Metrics().WALTailTruncations.Load() != 1 {
		t.Fatalf("truncations %d, want 1", s2.Metrics().WALTailTruncations.Load())
	}
	c := s2.Cursor()
	if c >= uint64(len(ds)) {
		t.Fatalf("flip mid-log kept cursor %d of %d", c, len(ds))
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, c))
	// The log was repaired in place: ingest resumes from the clean prefix.
	applyAll(t, s2, ds[c:])
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

// TestDurableMetricsServed asserts the durability gauges ride the market
// server's /metrics endpoint.
func TestDurableMetricsServed(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:3])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if s.Metrics().SnapshotWriteSeconds() <= 0 {
		t.Fatal("snapshot write seconds not recorded")
	}
	s.Close()
	s2 := openStore(t, storeOpts(fs, crawlTime))
	defer s2.Close()

	srv := market.NewServer(market.NewStore(market.Profile{Name: "analysis"}))
	srv.AttachScan(sourceOf(s2))
	srv.ConfigureServing(market.ServeConfig{})
	s2.Metrics().Register(srv.MetricsRegistry())

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, market.MetricsPath, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range []string{
		"durable_wal_records_replayed",
		"durable_wal_tail_truncations",
		"durable_snapshot_load_seconds",
		"durable_snapshot_write_seconds",
		"durable_snapshot_corrupt_quarantined",
		"durable_last_snapshot_generation",
		"paged_resident_bytes",
		"paged_fetches",
		"paged_hits",
		"paged_evictions",
		"paged_fetch_retries",
		"paged_quarantines",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, body)
		}
	}
	if !strings.Contains(body, fmt.Sprintf("durable_last_snapshot_generation 3")) {
		t.Fatalf("generation gauge wrong:\n%s", body)
	}
}

func TestFsyncPolicies(t *testing.T) {
	ds, crawlTime := deltas(t)
	for _, policy := range []string{"interval", "off"} {
		p, err := durable.ParseFsyncPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		fs := errfs.New()
		opts := storeOpts(fs, crawlTime)
		opts.Fsync = p
		opts.FsyncInterval = time.Millisecond
		s := openStore(t, opts)
		applyAll(t, s, ds[:3])
		s.Close() // final sync on close
		s2 := openStore(t, storeOpts(fs, crawlTime))
		if s2.Cursor() != 3 {
			t.Fatalf("%s: recovered cursor %d", policy, s2.Cursor())
		}
		requireSameState(t, sourceOf(s2), oracleSource(t, 3))
		s2.Close()
	}
}
