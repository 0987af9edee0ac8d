package ingest_test

// The incremental-ingest acceptance suite. The load-bearing test is
// TestIncrementalMatchesColdBuild: partition a synthetic crawl into random
// delta batches (empty batches, scrambled arrival order, duplicate listings,
// replayed and gapped cursors included), feed them through an Ingestor, and
// require the resulting engine to answer a randomized query/aggregate mix
// byte-identically to one cold BuildDatasetFromRecords+Enrich over the union.
// Everything else pins the cursor discipline, the HTTP surface and the
// end-to-end publish path into market.Server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/crawler"
	"marketscope/internal/ingest"
	"marketscope/internal/libdetect"
	"marketscope/internal/market"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// corpus builds one small synthetic crawl shared by every test in the file.
var (
	corpusOnce sync.Once
	corpusSnap *crawler.Snapshot
	corpusErr  error
)

func corpus(t *testing.T) *crawler.Snapshot {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := synth.SmallConfig()
		cfg.NumApps = 150
		cfg.NumDevelopers = 55
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
		corpusSnap, corpusErr = crawler.SnapshotFromStores(stores, true, cfg.CrawlDate)
	})
	if corpusErr != nil {
		t.Fatalf("corpus: %v", corpusErr)
	}
	return corpusSnap
}

// enrichOpts is the one enrichment configuration the whole file uses: the
// equivalence contract requires the ingestor and the cold oracle to enrich
// identically.
func enrichOpts() analysis.EnrichOptions { return analysis.DefaultEnrichOptions() }

// listingFor wraps one snapshot record (plus its APK, when harvested) as a
// delta listing.
func listingFor(snap *crawler.Snapshot, rec appmeta.Record) ingest.Listing {
	l := ingest.Listing{Record: rec}
	if data, ok := snap.APK(rec.Key()); ok {
		l.APK = data
	}
	return l
}

// coldSource is the oracle: one cold build + enrich over the given records in
// the given order, exactly what N batches of ingest must reproduce.
func coldSource(t *testing.T, snap *crawler.Snapshot, records []appmeta.Record) query.Source {
	t.Helper()
	d, err := analysis.BuildDatasetFromRecords(snap.CrawlTime, records, snap.APK, analysis.BuildOptions{})
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	d.Enrich(enrichOpts())
	return d.QuerySource()
}

// canonicalJSON reduces a result to the bytes the equivalence is judged on:
// fields, rows and the match count (timings and explain plans legitimately
// differ between a sealed and a cold engine).
func canonicalJSON(t *testing.T, res *query.Result) []byte {
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

// requireSameScan runs q on both sources and requires byte-identical results.
func requireSameScan(t *testing.T, got, want query.Source, q query.Query) {
	t.Helper()
	gr, gerr := got.Scan(q)
	wr, werr := want.Scan(q)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("scan error mismatch: got %v, want %v (query %+v)", gerr, werr, q)
	}
	if gerr != nil {
		return
	}
	if g, w := canonicalJSON(t, gr), canonicalJSON(t, wr); !bytes.Equal(g, w) {
		t.Fatalf("scan diverged for %+v:\n got %s\nwant %s", q, g, w)
	}
}

// requireSameAggregate is requireSameScan for aggregation requests.
func requireSameAggregate(t *testing.T, got, want query.Source, a query.Aggregate) {
	t.Helper()
	gs, gok := got.(query.AggregateSource)
	ws, wok := want.(query.AggregateSource)
	if !gok || !wok {
		t.Fatalf("source lost aggregation support: got %v, want %v", gok, wok)
	}
	gr, gerr := gs.Aggregate(a)
	wr, werr := ws.Aggregate(a)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("aggregate error mismatch: got %v, want %v (request %+v)", gerr, werr, a)
	}
	if gerr != nil {
		return
	}
	if g, w := canonicalJSON(t, gr), canonicalJSON(t, wr); !bytes.Equal(g, w) {
		t.Fatalf("aggregate diverged for %+v:\n got %s\nwant %s", a, g, w)
	}
}

// fieldSamples dumps every column once and collects each field's non-null
// values, the pool the randomized filters draw operands from.
func fieldSamples(t *testing.T, src query.Source) ([]query.FieldInfo, map[string][]any) {
	t.Helper()
	res, err := src.Scan(query.Query{})
	if err != nil {
		t.Fatalf("full dump: %v", err)
	}
	samples := map[string][]any{}
	for c, f := range res.Fields {
		for _, row := range res.Rows {
			if row[c] != nil {
				samples[f.Name] = append(samples[f.Name], row[c])
			}
		}
	}
	return res.Fields, samples
}

// jsonRoundTrip re-parses a query through the production JSON path, so filter
// operands reach the engine in exactly the representation HTTP clients
// produce (numbers as float64, times as RFC 3339 strings).
func jsonRoundTrip(t *testing.T, q query.Query) query.Query {
	t.Helper()
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatalf("marshal query: %v", err)
	}
	out, err := query.ParseQuery(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reparse query %s: %v", b, err)
	}
	return out
}

// aggRoundTrip is jsonRoundTrip for aggregation requests.
func aggRoundTrip(t *testing.T, a query.Aggregate) query.Aggregate {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal aggregate: %v", err)
	}
	out, err := query.ParseAggregate(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reparse aggregate %s: %v", b, err)
	}
	return out
}

// randomFilter builds one valid filter against a sampled field value.
func randomFilter(rng *rand.Rand, fields []query.FieldInfo, samples map[string][]any) (query.Filter, bool) {
	f := fields[rng.Intn(len(fields))]
	if rng.Intn(6) == 0 {
		return query.Filter{Field: f.Name, Op: query.OpIsNull, Value: rng.Intn(2) == 0}, true
	}
	pool := samples[f.Name]
	if len(pool) == 0 {
		return query.Filter{Field: f.Name, Op: query.OpIsNull}, true
	}
	v := pool[rng.Intn(len(pool))]
	switch f.Kind {
	case query.KindString:
		ops := []query.Op{query.OpEq, query.OpNe, query.OpContains, query.OpLt, query.OpGe}
		op := ops[rng.Intn(len(ops))]
		if op == query.OpContains {
			s := v.(string)
			if len(s) > 2 {
				s = s[:1+rng.Intn(len(s)-1)]
			}
			return query.Filter{Field: f.Name, Op: op, Value: s}, true
		}
		return query.Filter{Field: f.Name, Op: op, Value: v}, true
	case query.KindInt, query.KindFloat, query.KindTime:
		ops := []query.Op{query.OpEq, query.OpNe, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
		return query.Filter{Field: f.Name, Op: ops[rng.Intn(len(ops))], Value: v}, true
	case query.KindBool:
		return query.Filter{Field: f.Name, Op: query.OpEq, Value: v}, true
	}
	return query.Filter{}, false
}

// randomQuery assembles one scan request: random projection, 0-2 filters,
// 0-2 sort keys, an occasional limit.
func randomQuery(rng *rand.Rand, fields []query.FieldInfo, samples map[string][]any) query.Query {
	var q query.Query
	for i := 0; i < 1+rng.Intn(4); i++ {
		q.Fields = append(q.Fields, fields[rng.Intn(len(fields))].Name)
	}
	for i := rng.Intn(3); i > 0; i-- {
		if f, ok := randomFilter(rng, fields, samples); ok {
			q.Filters = append(q.Filters, f)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.Sort = append(q.Sort, query.SortKey{
			Field: fields[rng.Intn(len(fields))].Name,
			Desc:  rng.Intn(2) == 0,
		})
	}
	// Unsorted scans return rows in dataset order, so they compare exactly
	// even under a limit; keep limits to sorted queries anyway for variety.
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(40)
	}
	return q
}

// randomAggregate assembles one grouped-aggregation request over the sampled
// schema.
func randomAggregate(rng *rand.Rand, fields []query.FieldInfo, samples map[string][]any) query.Aggregate {
	var a query.Aggregate
	groupable := []string{"market", "market_chinese", "category", "flagged_malware"}
	for i := rng.Intn(3); i > 0; i-- {
		a.GroupBy = append(a.GroupBy, groupable[rng.Intn(len(groupable))])
	}
	a.Aggregates = append(a.Aggregates, query.AggSpec{Op: query.AggCount, As: "n"})
	for i := rng.Intn(3); i > 0; i-- {
		f := fields[rng.Intn(len(fields))]
		switch f.Kind {
		case query.KindInt, query.KindFloat, query.KindBool:
			ops := []query.AggOp{query.AggSum, query.AggMean, query.AggMin, query.AggMax}
			op := ops[rng.Intn(len(ops))]
			if f.Kind == query.KindBool && op != query.AggSum {
				op = query.AggSum
			}
			a.Aggregates = append(a.Aggregates, query.AggSpec{Op: op, Field: f.Name, As: fmt.Sprintf("a%d", i)})
		case query.KindString:
			ops := []query.AggOp{query.AggDistinct, query.AggTopK}
			a.Aggregates = append(a.Aggregates, query.AggSpec{
				Op: ops[rng.Intn(len(ops))], Field: f.Name, K: 1 + rng.Intn(5), As: fmt.Sprintf("a%d", i)})
		}
	}
	for i := rng.Intn(2); i > 0; i-- {
		if f, ok := randomFilter(rng, fields, samples); ok {
			a.Filters = append(a.Filters, f)
		}
	}
	a.Sort = []query.SortKey{{Field: "n", Desc: rng.Intn(2) == 0}}
	if rng.Intn(2) == 0 {
		a.Limit = 1 + rng.Intn(10)
	}
	return a
}

// requireEquivalent drives both sources through a full dump plus a randomized
// query/aggregate mix and requires byte-identical answers throughout.
func requireEquivalent(t *testing.T, rng *rand.Rand, got, want query.Source) {
	t.Helper()
	requireSameScan(t, got, want, query.Query{}) // every field, every row
	fields, samples := fieldSamples(t, want)
	for i := 0; i < 14; i++ {
		requireSameScan(t, got, want, jsonRoundTrip(t, randomQuery(rng, fields, samples)))
	}
	for i := 0; i < 8; i++ {
		requireSameAggregate(t, got, want, aggRoundTrip(t, randomAggregate(rng, fields, samples)))
	}
}

// TestIncrementalMatchesColdBuild is the acceptance test of the whole PR: N
// incremental batches must yield an engine byte-identical to one cold build
// over the union, for randomized partitions that include empty batches,
// scrambled arrival order, duplicate listings, cursor replays and gaps.
func TestIncrementalMatchesColdBuild(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()

	for seed := 0; seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			shuffled := append([]appmeta.Record(nil), records...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

			ing := ingest.New(ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime})
			seen := map[appmeta.Key]bool{}
			var keptOrder []appmeta.Record
			var seq uint64
			totalAdded, sealedBatches := 0, 0

			for off := 0; off < len(shuffled); {
				// Occasionally probe the cursor discipline mid-stream: a replay
				// must be a no-op and a gap must be rejected, neither touching
				// the dataset.
				if seq > 0 && rng.Intn(4) == 0 {
					before := ing.Dataset()
					res, err := ing.Apply(ingest.Delta{Seq: rng.Uint64() % seq, Listings: []ingest.Listing{listingFor(snap, shuffled[0])}})
					if err != nil || res.Applied {
						t.Fatalf("replayed delta: applied=%v err=%v", res.Applied, err)
					}
					if _, err := ing.Apply(ingest.Delta{Seq: seq + 1 + rng.Uint64()%5}); err == nil {
						t.Fatal("gapped delta was accepted")
					}
					if ing.Dataset() != before || ing.Cursor() != seq {
						t.Fatal("out-of-order deltas moved the cursor or the dataset")
					}
				}

				size := rng.Intn(40)
				if size > len(shuffled)-off {
					size = len(shuffled) - off
				}
				batch := shuffled[off : off+size]
				off += size
				listings := make([]ingest.Listing, 0, size+2)
				for _, rec := range batch {
					listings = append(listings, listingFor(snap, rec))
				}
				// Re-send a couple of already-ingested listings: append-only
				// means they must be skipped, not updated.
				for i := rng.Intn(3); i > 0 && len(keptOrder) > 0; i-- {
					listings = append(listings, listingFor(snap, keptOrder[rng.Intn(len(keptOrder))]))
				}
				rng.Shuffle(len(listings), func(i, j int) { listings[i], listings[j] = listings[j], listings[i] })

				res, err := ing.Apply(ingest.Delta{Seq: seq, Listings: listings})
				if err != nil {
					t.Fatalf("apply batch at seq %d: %v", seq, err)
				}
				seq++
				if !res.Applied || res.Cursor != seq {
					t.Fatalf("batch result %+v: want applied at cursor %d", res, seq)
				}
				totalAdded += res.Added
				if res.Sealed {
					sealedBatches++
				}

				// Track the expected dataset order: the batch's first-seen keys
				// in canonical (market, package) order.
				canon := append([]ingest.Listing(nil), listings...)
				sortListings(canon)
				added := 0
				for _, l := range canon {
					if !seen[l.Record.Key()] {
						seen[l.Record.Key()] = true
						keptOrder = append(keptOrder, l.Record)
						added++
					}
				}
				if res.Added != added || res.Listings != len(keptOrder) {
					t.Fatalf("batch bookkeeping %+v: want added=%d listings=%d", res, added, len(keptOrder))
				}

				// Sometimes publish (build the engine) mid-stream, which is what
				// arms the sealed-append fast path for the next batch.
				if rng.Intn(2) == 0 && ing.Dataset() != nil {
					ing.Dataset().QuerySource()
				}
			}

			if totalAdded != len(records) || len(keptOrder) != len(records) {
				t.Fatalf("ingested %d listings (tracked %d), want %d", totalAdded, len(keptOrder), len(records))
			}
			requireEquivalent(t, rng, ing.Dataset().QuerySource(), coldSource(t, snap, keptOrder))
			t.Logf("seed %d: %d batches, %d sealed", seed, seq, sealedBatches)
		})
	}

	// A forced detection change on the previous epoch's last APK-bearing
	// row: the metadata-only listings (if any) land first, then one listing
	// L with an APK alone, then every other listing with one. L detects a
	// library learned from the corpus (not in the catalog), which no feature
	// observation of L alone can establish, so the last batch changes L's
	// detections. Random partitions rarely change the one row that a
	// re-detection pass over every APK row must not skip.
	t.Run("held_back_library", func(t *testing.T) {
		t.Parallel()
		full, err := analysis.BuildDatasetFromRecords(snap.CrawlTime, records, snap.APK, analysis.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full.Enrich(enrichOpts())
		var last appmeta.Record
		var rest, held []ingest.Listing
		for _, app := range full.Apps {
			switch {
			case !app.HasAPK():
				rest = append(rest, listingFor(snap, app.Meta))
			case last.Package == "" && slices.ContainsFunc(app.Libraries, func(d libdetect.Detection) bool { return !d.Known }):
				last = app.Meta
			default:
				held = append(held, listingFor(snap, app.Meta))
			}
		}
		if last.Package == "" {
			t.Fatal("no listing detects a library learned from the corpus")
		}
		ing := ingest.New(ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime})
		var keptOrder []appmeta.Record
		for seq, batch := range [][]ingest.Listing{rest, {listingFor(snap, last)}, held} {
			if _, err := ing.Apply(ingest.Delta{Seq: uint64(seq), Listings: batch}); err != nil {
				t.Fatalf("batch %d: %v", seq, err)
			}
			sortListings(batch)
			for _, l := range batch {
				keptOrder = append(keptOrder, l.Record)
			}
			if d := ing.Dataset(); d != nil {
				d.QuerySource() // arms the sealed append
			}
			if seq == 1 {
				full = ing.Dataset()
			}
		}
		before := full.Apps[len(full.Apps)-1]
		after := ing.Dataset().Apps[len(full.Apps)-1]
		if before.Meta.Key() != last.Key() || reflect.DeepEqual(before.Libraries, after.Libraries) {
			t.Fatalf("the final batch did not change the detections of the previous epoch's last row %s/%s (%v)",
				last.Market, last.Package, before.Libraries)
		}
		requireEquivalent(t, rand.New(rand.NewSource(5)), ing.Dataset().QuerySource(), coldSource(t, snap, keptOrder))
	})
}

// sortListings orders a batch canonically by (market, package), mirroring the
// ingestor's documented dataset order.
func sortListings(ls []ingest.Listing) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0; j-- {
			a, b := ls[j-1].Record, ls[j].Record
			if a.Market < b.Market || (a.Market == b.Market && a.Package <= b.Package) {
				break
			}
			ls[j-1], ls[j] = ls[j], ls[j-1]
		}
	}
}

// TestSealedAppendPath pins the fast path deterministically: after the bulk
// of the corpus lands and its engine is built, a metadata-only batch (no APKs,
// so no new feature observations and no detection changes) must seal the next
// engine from the previous epoch's columns.
func TestSealedAppendPath(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	ing := ingest.New(ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime})

	bulk := make([]ingest.Listing, 0, len(records))
	for _, rec := range records {
		bulk = append(bulk, listingFor(snap, rec))
	}
	if _, err := ing.Apply(ingest.Delta{Seq: 0, Listings: bulk}); err != nil {
		t.Fatalf("bulk batch: %v", err)
	}
	ing.Dataset().QuerySource() // build (and thereby cache) the epoch-1 engine

	meta := []ingest.Listing{{Record: appmeta.Record{
		Market: "metadata-only-market", Package: "com.example.lateling",
		AppName: "Late Listing", Category: "tools", DeveloperName: "late dev",
		Downloads: 10, Rating: 4.0,
	}}}
	res, err := ing.Apply(ingest.Delta{Seq: 1, Listings: meta})
	if err != nil {
		t.Fatalf("metadata-only batch: %v", err)
	}
	if !res.Sealed || res.Redetected != 0 {
		t.Fatalf("metadata-only batch %+v: want sealed with zero redetections", res)
	}
	rng := rand.New(rand.NewSource(99))
	var keptOrder []appmeta.Record
	keptOrder = append(keptOrder, records...)
	keptOrder = append(keptOrder, meta[0].Record)
	requireEquivalent(t, rng, ing.Dataset().QuerySource(), coldSource(t, snap, keptOrder))
}

// TestCursorDiscipline pins every branch of the Apply contract that the
// randomized suite only samples.
func TestCursorDiscipline(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	var published []*analysis.Dataset
	ing := ingest.New(ingest.Options{
		Enrich:    enrichOpts(),
		CrawlTime: snap.CrawlTime,
		Publish:   func(d *analysis.Dataset) { published = append(published, d) },
	})

	// An empty batch advances the cursor but publishes nothing.
	res, err := ing.Apply(ingest.Delta{Seq: 0})
	if err != nil || !res.Applied || res.Cursor != 1 || res.Added != 0 {
		t.Fatalf("empty batch: res=%+v err=%v", res, err)
	}
	if len(published) != 0 || ing.Dataset() != nil {
		t.Fatal("empty batch must not publish a dataset")
	}

	// A malformed listing rejects the whole batch: cursor and dataset stay.
	bad := ingest.Delta{Seq: 1, Listings: []ingest.Listing{
		listingFor(snap, records[0]),
		{Record: appmeta.Record{Market: "m"}}, // no package
	}}
	if _, err := ing.Apply(bad); err == nil {
		t.Fatal("batch with an invalid record was accepted")
	}
	if ing.Cursor() != 1 || ing.Dataset() != nil || len(published) != 0 {
		t.Fatal("rejected batch moved the cursor or the dataset")
	}

	// A real batch lands and publishes exactly once.
	res, err = ing.Apply(ingest.Delta{Seq: 1, Listings: []ingest.Listing{
		listingFor(snap, records[0]), listingFor(snap, records[1]),
	}})
	if err != nil || res.Added != 2 || len(published) != 1 || published[0] != ing.Dataset() {
		t.Fatalf("first real batch: res=%+v err=%v published=%d", res, err, len(published))
	}

	// A duplicate-only batch advances the cursor, skips everything, and does
	// not publish a new epoch.
	ds := ing.Dataset()
	res, err = ing.Apply(ingest.Delta{Seq: 2, Listings: []ingest.Listing{
		listingFor(snap, records[1]), listingFor(snap, records[1]),
	}})
	if err != nil || !res.Applied || res.Added != 0 || res.Skipped != 2 {
		t.Fatalf("duplicate-only batch: res=%+v err=%v", res, err)
	}
	if ing.Dataset() != ds || len(published) != 1 || ing.Cursor() != 3 {
		t.Fatal("duplicate-only batch published or failed to advance the cursor")
	}

	// Replay of a landed batch: acknowledged, not applied.
	res, err = ing.Apply(ingest.Delta{Seq: 1, Listings: []ingest.Listing{listingFor(snap, records[2])}})
	if err != nil || res.Applied || res.Cursor != 3 {
		t.Fatalf("replay: res=%+v err=%v", res, err)
	}

	// Gap: rejected with ErrCursorGap.
	if _, err := ing.Apply(ingest.Delta{Seq: 7}); err == nil || !strings.Contains(err.Error(), "want 3") {
		t.Fatalf("gap: err=%v", err)
	}
}

// TestIngestHTTP pins the HTTP surface: cursor probe, apply, replay, gap,
// malformed body, method gate.
func TestIngestHTTP(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	ing := ingest.New(ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime})
	h := ingest.Handler(ing)

	get := func() ingest.CursorState {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, ingest.IngestPath, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET cursor: code %d", rec.Code)
		}
		var cs ingest.CursorState
		if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
			t.Fatalf("GET cursor body %q: %v", rec.Body.String(), err)
		}
		return cs
	}
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, ingest.IngestPath, strings.NewReader(body)))
		return rec
	}
	deltaBody := func(seq uint64, recs ...appmeta.Record) string {
		d := ingest.Delta{Seq: seq}
		for _, r := range recs {
			d.Listings = append(d.Listings, listingFor(snap, r))
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal delta: %v", err)
		}
		return string(b)
	}

	if cs := get(); cs.Cursor != 0 || cs.Listings != 0 {
		t.Fatalf("initial cursor state %+v", cs)
	}
	rec := post(deltaBody(0, records[0], records[1], records[2]))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST delta: code %d body %q", rec.Code, rec.Body.String())
	}
	var res ingest.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || !res.Applied || res.Added != 3 {
		t.Fatalf("POST delta result %+v (err %v)", res, err)
	}
	if cs := get(); cs.Cursor != 1 || cs.Listings != 3 {
		t.Fatalf("cursor state after delta %+v", cs)
	}

	// Replay: 200, not applied.
	if err := json.Unmarshal(post(deltaBody(0, records[0])).Body.Bytes(), &res); err != nil || res.Applied {
		t.Fatalf("replay result %+v (err %v)", res, err)
	}
	// Gap: 409 carrying the expected cursor.
	rec = post(deltaBody(5, records[3]))
	if rec.Code != http.StatusConflict {
		t.Fatalf("gapped POST: code %d", rec.Code)
	}
	var e struct {
		Error  string `json:"error"`
		Cursor uint64 `json:"cursor"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.Cursor != 1 {
		t.Fatalf("gap body %q (err %v)", rec.Body.String(), err)
	}
	// Malformed body: 400.
	if rec := post(`{"seq": 1, "nope": true}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed POST: code %d", rec.Code)
	}
	// Invalid record: 400 (not a cursor conflict).
	if rec := post(`{"seq": 1, "listings": [{"record": {"market": "m"}}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid-record POST: code %d body %q", rec.Code, rec.Body.String())
	}
	// Method gate: 405.
	recM := httptest.NewRecorder()
	h(recM, httptest.NewRequest(http.MethodDelete, ingest.IngestPath, nil))
	if recM.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: code %d", recM.Code)
	}
}

// TestEndToEndServerPublish wires the full production topology: a
// market.Server with the ingest handler mounted via AttachPost and the
// ingestor publishing each epoch through SwapSource. Deltas POSTed over HTTP
// must advance the serving epoch, invalidate the result cache, and change
// what /api/scan returns — without a restart.
func TestEndToEndServerPublish(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()

	srv := market.NewServer(market.NewStore(market.Profile{Name: "analysis"}))
	empty, err := analysis.BuildDatasetFromRecords(snap.CrawlTime, nil, nil, analysis.BuildOptions{})
	if err != nil {
		t.Fatalf("empty dataset: %v", err)
	}
	empty.Enrich(enrichOpts())
	srv.AttachScan(empty.QuerySource())
	ing := ingest.New(ingest.Options{
		Enrich:    enrichOpts(),
		CrawlTime: snap.CrawlTime,
		Publish:   func(d *analysis.Dataset) { srv.SwapSource(d.QuerySource()) },
	})
	srv.AttachPost(ingest.IngestPath, ingest.Handler(ing))
	srv.ConfigureServing(market.ServeConfig{CacheBytes: 1 << 20})

	do := func(method, path, body string) *httptest.ResponseRecorder {
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, path, nil)
		} else {
			r = httptest.NewRequest(method, path, strings.NewReader(body))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		return rec
	}
	countRows := func(body []byte) int {
		var res struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("scan body %q: %v", body, err)
		}
		return len(res.Rows)
	}
	postDelta := func(seq uint64, recs []appmeta.Record) {
		d := ingest.Delta{Seq: seq}
		for _, r := range recs {
			d.Listings = append(d.Listings, listingFor(snap, r))
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal delta: %v", err)
		}
		if rec := do(http.MethodPost, ingest.IngestPath, string(b)); rec.Code != http.StatusOK {
			t.Fatalf("POST delta seq %d: code %d body %q", seq, rec.Code, rec.Body.String())
		}
	}

	const scanQ = `{"fields":["package"]}`
	if rec := do(http.MethodPost, market.ScanPath, scanQ); countRows(rec.Body.Bytes()) != 0 {
		t.Fatalf("pre-ingest scan returned rows: %s", rec.Body.String())
	}
	if srv.Epoch() != 0 {
		t.Fatalf("pre-ingest epoch %d", srv.Epoch())
	}

	postDelta(0, records[:30])
	if srv.Epoch() != 1 {
		t.Fatalf("epoch after first delta = %d, want 1", srv.Epoch())
	}
	rec := do(http.MethodPost, market.ScanPath, scanQ)
	if rec.Header().Get("X-Cache") != "MISS" || countRows(rec.Body.Bytes()) != 30 {
		t.Fatalf("scan after first delta: X-Cache=%q rows=%d", rec.Header().Get("X-Cache"), countRows(rec.Body.Bytes()))
	}
	if rec := do(http.MethodPost, market.ScanPath, scanQ); rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat scan: X-Cache=%q, want HIT", rec.Header().Get("X-Cache"))
	}

	postDelta(1, records[30:50])
	if srv.Epoch() != 2 {
		t.Fatalf("epoch after second delta = %d, want 2", srv.Epoch())
	}
	rec = do(http.MethodPost, market.ScanPath, scanQ)
	if rec.Header().Get("X-Cache") != "MISS" || countRows(rec.Body.Bytes()) != 50 {
		t.Fatalf("scan after second delta: X-Cache=%q rows=%d", rec.Header().Get("X-Cache"), countRows(rec.Body.Bytes()))
	}
	// The cursor probe rides the same GET gate as every other route.
	rec = do(http.MethodGet, ingest.IngestPath, "")
	var cs ingest.CursorState
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil || cs.Cursor != 2 || cs.Listings != 50 {
		t.Fatalf("cursor probe: %+v (err %v, body %q)", cs, err, rec.Body.String())
	}
	// Aggregation works against the published (enriched) source.
	if rec := do(http.MethodPost, market.AggregatePath, `{"aggregates":[{"op":"count"}]}`); rec.Code != http.StatusOK {
		t.Fatalf("aggregate on published source: code %d body %q", rec.Code, rec.Body.String())
	}
}

// TestConcurrentScansDuringApply hammers the last published engine from
// reader goroutines while batches land; run under -race. Readers must always
// see a complete epoch: every response's row count is one of the published
// dataset sizes.
func TestConcurrentScansDuringApply(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()

	var publishedSrc sync.Map // *querySourceBox
	sizes := map[int]bool{}
	var sizesMu sync.Mutex
	ing := ingest.New(ingest.Options{
		Enrich:    enrichOpts(),
		CrawlTime: snap.CrawlTime,
		Publish: func(d *analysis.Dataset) {
			sizesMu.Lock()
			sizes[d.NumListings()] = true
			sizesMu.Unlock()
			publishedSrc.Store("src", d.QuerySource())
		},
	})

	// First batch before the readers start, so there is always a source.
	first := make([]ingest.Listing, 0, 40)
	for _, rec := range records[:40] {
		first = append(first, listingFor(snap, rec))
	}
	if _, err := ing.Apply(ingest.Delta{Seq: 0, Listings: first}); err != nil {
		t.Fatalf("first batch: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _ := publishedSrc.Load("src")
				src := v.(query.Source)
				res, err := src.Scan(query.Query{Fields: []string{"package"}})
				if err != nil {
					t.Errorf("scan during ingest: %v", err)
					return
				}
				sizesMu.Lock()
				ok := sizes[len(res.Rows)]
				sizesMu.Unlock()
				if !ok {
					t.Errorf("scan saw %d rows, not any published epoch size", len(res.Rows))
					return
				}
			}
		}()
	}
	seq := uint64(1)
	for off := 40; off < len(records); {
		size := 20
		if size > len(records)-off {
			size = len(records) - off
		}
		batch := make([]ingest.Listing, 0, size)
		for _, rec := range records[off : off+size] {
			batch = append(batch, listingFor(snap, rec))
		}
		off += size
		if _, err := ing.Apply(ingest.Delta{Seq: seq, Listings: batch}); err != nil {
			t.Fatalf("batch at seq %d: %v", seq, err)
		}
		seq++
	}
	close(stop)
	wg.Wait()
}
