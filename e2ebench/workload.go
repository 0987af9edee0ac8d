package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// workload fixes everything one workload does to a spawned server. The rates
// were calibrated once (see README.md) and are frozen here.
type workload struct {
	name string
	// readConns is the number of read connections; with the ingest producer
	// the total stays at or below nproc.
	readConns   int
	nominalRate float64 // read requests per second in the nominal phase
	highRate    float64 // read requests per second in the high phase
	// deltaRate is the hot-ingest producer's deltas per second; 0 means the
	// workload instead probes ingest after its reads with re-crawl deltas.
	deltaRate     float64
	snapshotEvery int
	// fsync is the server's WAL sync policy. The read workloads' re-crawl
	// acks skip it, so shared-disk latency does not enter their figures.
	fsync string
	paged bool
	// minHit and maxHit bound the cache hit ratio the run must show.
	minHit, maxHit float64
	reads          func(r *rand.Rand, n int) []request
}

// deltaSize is the number of listings in every ingest delta.
const deltaSize = 200

// probeDeltas is how many re-crawl deltas the read workloads post after
// their reads. Each acks in about a millisecond.
const probeDeltas = 300

var workloads = map[string]workload{
	"scan-miss": {
		name: "scan-miss", readConns: 2,
		nominalRate: 165, highRate: 330,
		fsync:  "off",
		maxHit: 0.05,
		reads:  missMix,
	},
	"hot-ingest": {
		name: "hot-ingest", readConns: 1,
		nominalRate: 150, highRate: 300,
		deltaRate: 2, snapshotEvery: 4, fsync: "always",
		minHit: 0.6, maxHit: 1,
		reads: hotMix,
	},
	"paged": {
		name: "paged", readConns: 2,
		nominalRate: 85, highRate: 115,
		fsync:  "off",
		paged:  true,
		maxHit: 0.05,
		reads:  pagedMix,
	},
}

// request is one generated read: a scan or an aggregate, with its body
// pre-encoded so the generator only sends bytes.
type request struct {
	path string
	body []byte
	scan *query.Query
	agg  *query.Aggregate
}

func scanReq(q query.Query) request {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // a query built from plain values always encodes
	}
	return request{path: market.ScanPath, body: b, scan: &q}
}

func aggReq(a query.Aggregate) request {
	b, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	return request{path: market.AggregatePath, body: b, agg: &a}
}

// Value pools the generators draw from: the corpus's markets and its
// market-native categories (the scale generator adds three sloppy
// spellings to the consolidated taxonomy).
var (
	marketNames = func() []string {
		var out []string
		for _, p := range market.Profiles() {
			out = append(out, p.Name)
		}
		return out
	}()
	categoryNames = func() []string {
		var out []string
		for _, c := range appmeta.Categories() {
			out = append(out, string(c))
		}
		return append(out, "Unclassified", "102229", "Online Game")
	}()
	corpusStart = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	// corpusSpan is the release-date ramp of the corpus: ten minutes a row.
	corpusSpan = time.Duration(corpusRows) * 10 * time.Minute
)

func pick(r *rand.Rand, pool []string) string { return pool[r.IntN(len(pool))] }

func pickN(r *rand.Rand, pool []string, n int) []any {
	out := make([]any, 0, n)
	for _, i := range r.Perm(len(pool))[:n] {
		out = append(out, pool[i])
	}
	return out
}

// logUniform draws from [lo, hi) evenly on a log scale.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

func stamp(t time.Time) string { return t.Format(time.RFC3339) }

// dateWindow draws a release-date window of log-uniform width inside the
// corpus span.
func dateWindow(r *rand.Rand, minW, maxW time.Duration) (time.Time, time.Time) {
	w := time.Duration(logUniform(r, float64(minW), float64(maxW)))
	from := corpusStart.Add(time.Duration(r.Int64N(int64(corpusSpan - w))))
	return from.Truncate(time.Minute), from.Add(w).Truncate(time.Minute)
}

// The read shapes of the study's per-market filters and group-bys. Each
// takes a limit so the caller controls result size (and so key reuse).

func dictEq(r *rand.Rand, limit int) request {
	return scanReq(query.Query{
		Fields: []string{"package", "app_name", "rating", "downloads"},
		Filters: []query.Filter{
			{Field: "market", Op: query.OpEq, Value: pick(r, marketNames)},
			{Field: "market_category", Op: query.OpEq, Value: pick(r, categoryNames)},
		},
		Limit: limit,
	})
}

func dictIn(r *rand.Rand, limit int) request {
	return scanReq(query.Query{
		Fields: []string{"package", "market", "market_category", "rating"},
		Filters: []query.Filter{
			{Field: "market", Op: query.OpIn, Value: pickN(r, marketNames, 2+r.IntN(3))},
			{Field: "market_category", Op: query.OpIn, Value: pickN(r, categoryNames, 2+r.IntN(4))},
		},
		Sort:  []query.SortKey{{Field: "rating", Desc: true}},
		Limit: limit,
	})
}

// dateRange draws a narrow window half the time, which the planner answers
// from the sorted release_date index, and otherwise one covering over half
// the corpus, which it demotes to a full scan pruned by the zone maps.
func dateRange(r *rand.Rand, limit int) request {
	from, to := dateWindow(r, 6*time.Hour, 60*24*time.Hour)
	if r.IntN(2) == 0 {
		from, to = dateWindow(r, corpusSpan*55/100, corpusSpan*95/100)
	}
	return scanReq(query.Query{
		Fields: []string{"package", "market", "release_date", "downloads"},
		Filters: []query.Filter{
			{Field: "release_date", Op: query.OpGe, Value: stamp(from)},
			{Field: "release_date", Op: query.OpLt, Value: stamp(to)},
		},
		Limit: limit,
	})
}

func topK(r *rand.Rand, limit int) request {
	return scanReq(query.Query{
		Fields: []string{"package", "market", "rating", "downloads"},
		Filters: []query.Filter{
			{Field: "rating", Op: query.OpGe, Value: math.Round((1+3.9*r.Float64())*100) / 100},
			{Field: "downloads", Op: query.OpGe, Value: int64(logUniform(r, 10, 1e6))},
		},
		Sort:  []query.SortKey{{Field: "downloads", Desc: true}},
		Limit: limit,
	})
}

func groupBy(r *rand.Rand, limit int) request {
	from, to := dateWindow(r, 30*24*time.Hour, 400*24*time.Hour)
	return aggReq(query.Aggregate{
		GroupBy: []string{"market", "market_category"},
		Aggregates: []query.AggSpec{
			{Op: query.AggCount},
			{Op: query.AggMean, Field: "rating"},
		},
		Filters: []query.Filter{
			{Field: "release_date", Op: query.OpGe, Value: stamp(from)},
			{Field: "release_date", Op: query.OpLt, Value: stamp(to)},
		},
		Sort:  []query.SortKey{{Field: "count", Desc: true}},
		Limit: limit,
	})
}

func nameContains(r *rand.Rand, limit int) request {
	q := query.Query{
		Fields:  []string{"package", "app_name", "market"},
		Filters: []query.Filter{{Field: "app_name", Op: query.OpContains, Value: fmt.Sprintf("App %d", 1+r.IntN(999))}},
		Limit:   limit,
	}
	if r.IntN(2) == 0 {
		q.Filters = append(q.Filters, query.Filter{Field: "market", Op: query.OpEq, Value: pick(r, marketNames)})
	}
	return scanReq(q)
}

var shapes = []func(*rand.Rand, int) request{dictEq, dictIn, dateRange, topK, groupBy, nameContains}

// missMix draws n requests with limits from a wide range, so almost every
// request is a new cache key. Every consecutive run of len(shapes) requests
// holds each shape once, in a seeded order, so the share of each shape, and
// with it the cost of the mix, is the same for every seed.
func missMix(r *rand.Rand, n int) []request {
	out := make([]request, 0, n+len(shapes))
	for len(out) < n {
		for _, i := range r.Perm(len(shapes)) {
			out = append(out, shapes[i](r, 1+r.IntN(400)))
		}
	}
	return out[:n]
}

// hotTemplates is the size of the hot-ingest template set; it and the small
// limits keep every template's answer resident in the 8 MiB result cache.
const hotTemplates = 24

// hotMix draws n requests from a fixed template set under a Zipf law.
func hotMix(r *rand.Rand, n int) []request {
	tmpl := make([]request, hotTemplates)
	for i := range tmpl {
		tmpl[i] = shapes[i%len(shapes)](r, 10+r.IntN(40))
	}
	z := rand.NewZipf(r, 1.2, 1, hotTemplates-1)
	out := make([]request, n)
	for i := range out {
		out[i] = tmpl[z.Uint64()]
	}
	return out
}

// pagedGroups are disjoint column groups; consecutive paged requests rotate
// through them, so the columns one request pins are rarely those the last
// one left resident. Together they hold about 1.4 times the budget (a
// quarter of all column bytes), and any two fit in it at once, so two
// concurrent requests can always pin their working sets.
var pagedGroups = []func(*rand.Rand, int) request{
	// market, market_category, package
	func(r *rand.Rand, limit int) request {
		return scanReq(query.Query{
			Fields: []string{"package", "market_category"},
			Filters: []query.Filter{
				{Field: "market", Op: query.OpEq, Value: pick(r, marketNames)},
				{Field: "market_category", Op: query.OpIn, Value: pickN(r, categoryNames, 1+r.IntN(4))},
			},
			Limit: limit,
		})
	},
	// rating, downloads, version_code
	func(r *rand.Rand, limit int) request {
		return scanReq(query.Query{
			Fields: []string{"rating", "downloads", "version_code"},
			Filters: []query.Filter{
				{Field: "rating", Op: query.OpGe, Value: math.Round((1+3.9*r.Float64())*100) / 100},
				{Field: "version_code", Op: query.OpLe, Value: 1 + r.IntN(60)},
			},
			Sort:  []query.SortKey{{Field: "downloads", Desc: true}},
			Limit: limit,
		})
	},
	// release_date, update_date, developer_name
	func(r *rand.Rand, limit int) request {
		from, to := dateWindow(r, 24*time.Hour, 120*24*time.Hour)
		return scanReq(query.Query{
			Fields: []string{"developer_name", "release_date", "update_date"},
			Filters: []query.Filter{
				{Field: "release_date", Op: query.OpGe, Value: stamp(from)},
				{Field: "release_date", Op: query.OpLt, Value: stamp(to)},
			},
			Limit: limit,
		})
	},
	// category, has_ads, has_iap, listed_apk_size
	func(r *rand.Rand, limit int) request {
		return aggReq(query.Aggregate{
			GroupBy: []string{"category", "has_ads"},
			Aggregates: []query.AggSpec{
				{Op: query.AggCount},
				{Op: query.AggMean, Field: "listed_apk_size"},
			},
			Filters: []query.Filter{
				{Field: "has_iap", Op: query.OpEq, Value: r.IntN(2) == 0},
				{Field: "listed_apk_size", Op: query.OpGe, Value: int64(logUniform(r, 1e5, 1e8))},
			},
			Sort:  []query.SortKey{{Field: "count", Desc: true}},
			Limit: limit,
		})
	},
	// app_name, version_name
	func(r *rand.Rand, limit int) request {
		return scanReq(query.Query{
			Fields:  []string{"app_name", "version_name"},
			Filters: []query.Filter{{Field: "app_name", Op: query.OpContains, Value: fmt.Sprintf("App %d", 1+r.IntN(999))}},
			Limit:   limit,
		})
	},
}

// pagedMix rotates through the column groups with miss-sized parameters.
func pagedMix(r *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = pagedGroups[i%len(pagedGroups)](r, 1+r.IntN(400))
	}
	return out
}

// deltaConfig is the stream new listings come from: the corpus's app and
// developer populations under a derived seed, released after the corpus.
func deltaConfig(seed uint64, rows int) synth.ScaleConfig {
	cfg := corpusConfig(seed ^ 0x9e3779b97f4a7c15)
	cfg.Rows = rows
	cfg.StartDate = corpusStart.Add(corpusSpan)
	return cfg
}

// newDeltas encodes n deltas of fresh listings at seqs from, from+1, ...
func newDeltas(seed uint64, from uint64, n int) ([][]byte, error) {
	listings := make([]ingest.Listing, 0, n*deltaSize)
	err := synth.StreamListings(deltaConfig(seed, n*deltaSize), func(_ int, rec appmeta.Record) error {
		listings = append(listings, ingest.Listing{Record: rec})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := range out {
		d := ingest.Delta{Seq: from + uint64(i), Listings: listings[i*deltaSize : (i+1)*deltaSize]}
		if out[i], err = json.Marshal(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recrawlDeltas encodes n deltas that re-post corpus listings: every key is
// already ingested, so each applies (WAL append, cursor advance) without
// adding a row or swapping the engine.
func recrawlDeltas(sample []appmeta.Record, from uint64, n int) ([][]byte, error) {
	listings := make([]ingest.Listing, 0, len(sample))
	for _, rec := range sample {
		listings = append(listings, ingest.Listing{Record: rec})
	}
	out := make([][]byte, n)
	for i := range out {
		var err error
		if out[i], err = json.Marshal(ingest.Delta{Seq: from + uint64(i), Listings: listings}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
