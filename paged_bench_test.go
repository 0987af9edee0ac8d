// BenchmarkPagedServe measures serving a snapshot-backed corpus without
// materializing it: a durable store recovers lazily over the scaled corpus
// under a resident-byte budget a quarter of the materialized column bytes,
// and the bench records page-in (first touch, disk + decode) vs warm-hit
// latency and the steady state of a rotation over disjoint column groups
// whose union exceeds the budget: its residency (asserted within the
// budget), its evictions (asserted to happen), and its fetches, hit ratio
// and bytes allocated per fetch (reported, not gated). Before
// any timing the paged engine is asserted byte-identical to the eagerly
// materialized store on the scale bench shapes plus a row-order-sensitive
// dump (the equivalence-then-measure pattern of the other benches), and the
// PAGEDSTAT line feeds the CI bench artifact BENCH_paging.json.
package marketscope_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/query"
)

func BenchmarkPagedServe(b *testing.B) {
	rows := scaledRowsTarget()
	records := coldstartRecords(b, rows)
	crawlTime := records[len(records)-1].UpdateDate

	// Seed one durable data dir: the corpus as a single WAL'd delta plus a
	// paged column-store snapshot for the lazy opens to serve from.
	dataDir := filepath.Join(b.TempDir(), "data")
	openOpts := func(budget int64) durable.Options {
		return durable.Options{
			Dir:        dataDir,
			Fsync:      durable.FsyncOff,
			PageBudget: budget,
			Ingest: ingest.Options{
				Enrich:    analysis.DefaultEnrichOptions(),
				CrawlTime: crawlTime,
			},
		}
	}
	listings := make([]ingest.Listing, 0, len(records))
	for _, rec := range records {
		listings = append(listings, ingest.Listing{Record: rec})
	}
	seed, err := durable.Open(openOpts(0))
	if err != nil {
		b.Fatalf("open seed store: %v", err)
	}
	if res, err := seed.Apply(ingest.Delta{Seq: 0, Listings: listings}); err != nil || !res.Applied {
		b.Fatalf("seed apply: %+v (err %v)", res, err)
	}
	if err := seed.WriteSnapshot(); err != nil {
		b.Fatalf("seed snapshot: %v", err)
	}
	eagerSrc := seed.Dataset().QuerySource()
	listings, records = nil, nil

	probes := scaleBenchQueries(rows)
	dump := query.Query{Fields: []string{"market", "package", "downloads"}, Limit: 2000}

	// Equivalence gate before believing any number: the lazily paged engine
	// must answer every probe — and the order-sensitive dump — byte-identically
	// to the materialized store it replaces. The full dump also forces every
	// column in, so the unbounded pool's residency afterwards is the
	// materialized column footprint the budget is derived from.
	lazy, err := durable.Open(openOpts(-1))
	if err != nil {
		b.Fatalf("lazy open: %v", err)
	}
	lazySrc := lazy.Dataset().QuerySource()
	for _, probe := range append(probes, struct {
		name string
		q    query.Query
	}{"dump", dump}) {
		pres, perr := lazySrc.Scan(probe.q)
		eres, eerr := eagerSrc.Scan(probe.q)
		pj := ingestCanonical(b, pres, perr)
		ej := ingestCanonical(b, eres, eerr)
		if !bytes.Equal(pj, ej) {
			b.Fatalf("%s: paged engine diverged from the materialized store:\npaged %.300s\neager %.300s", probe.name, pj, ej)
		}
	}
	if _, err := lazySrc.Scan(query.Query{Limit: 1}); err != nil {
		b.Fatalf("column sweep: %v", err)
	}
	totalBytes := lazy.PageStats().ResidentBytes
	if totalBytes == 0 {
		b.Fatal("unbounded paged store reports no resident bytes")
	}
	if err := lazy.Close(); err != nil {
		b.Fatalf("close lazy store: %v", err)
	}
	if err := seed.Close(); err != nil {
		b.Fatalf("close seed store: %v", err)
	}

	// The headline configuration: a budget a quarter of the materialized
	// column bytes. Every probe must still be served — the pool cannot evict a
	// query's own pinned columns, so a probe failing here means the budget
	// claim does not hold.
	budget := totalBytes / 4
	paged, err := durable.Open(openOpts(budget))
	if err != nil {
		b.Fatalf("budgeted open: %v", err)
	}
	defer paged.Close()
	src := paged.Dataset().QuerySource()

	// Page-in vs warm-hit latency on the first probe: the first scan after a
	// cold open pays the disk read + page decode, repeats hit the resident
	// column.
	pageInStart := time.Now()
	if _, err := src.Scan(probes[0].q); err != nil {
		b.Fatalf("page-in scan: %v", err)
	}
	pageIn := time.Since(pageInStart)
	var warm time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := src.Scan(probes[0].q); err != nil {
			b.Fatalf("warm scan: %v", err)
		}
		if d := time.Since(start); warm == 0 || d < warm {
			warm = d
		}
	}

	// Steady state: rotate over the column groups, which together hold more
	// than the budget, so the rounds must evict, and require residency under
	// the budget after every request. One round first lets the pool's free
	// lists fill with evicted memory.
	rotation := pagedRotation()
	var residentPeak int64
	rotate := func() {
		for i, q := range rotation {
			if _, err := src.Scan(q); err != nil {
				b.Fatalf("steady-state group %d: %v", i, err)
			}
			st := paged.PageStats()
			if st.ResidentBytes > st.Budget {
				b.Fatalf("resident %d over budget %d after group %d", st.ResidentBytes, st.Budget, i)
			}
			residentPeak = max(residentPeak, st.ResidentBytes)
		}
	}
	rotate()
	steady0 := paged.PageStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for round := 0; round < 3; round++ {
		rotate()
	}
	runtime.ReadMemStats(&ms1)
	st := paged.PageStats()
	steadyFetches, steadyHits := st.Fetches-steady0.Fetches, st.Hits-steady0.Hits
	steadyEvictions := st.Evictions - steady0.Evictions
	if steadyEvictions == 0 {
		b.Fatalf("the steady rotation never evicted under budget %d: %+v", budget, st)
	}
	steadyHitRatio := float64(steadyHits) / float64(steadyFetches+steadyHits)
	steadyAllocPerFetch := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(steadyFetches, 1))
	printOnce("paged", fmt.Sprintf(
		"PAGEDSTAT rows=%d total_col_bytes=%d budget=%d budget_ratio=%.2f page_in_us=%.1f warm_us=%.1f warm_speedup=%.1f resident_peak=%d fetches=%d evictions=%d quarantines=%d steady_fetches=%d steady_evictions=%d steady_hit_ratio=%.3f steady_alloc_bytes_per_fetch=%.0f identical=1",
		rows, totalBytes, budget, float64(budget)/float64(totalBytes),
		float64(pageIn.Nanoseconds())/1000, float64(warm.Nanoseconds())/1000,
		float64(pageIn)/float64(warm),
		residentPeak, st.Fetches, st.Evictions, st.Quarantines, steadyFetches, steadyEvictions,
		steadyHitRatio, steadyAllocPerFetch))
	if st.Quarantines != 0 {
		b.Fatalf("healthy snapshot quarantined during bench: %+v", st)
	}

	// The timed loop: one warm-path scan per iteration — the steady-state
	// serving cost under the budget.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Scan(probes[i%len(probes)].q); err != nil {
			b.Fatal(err)
		}
	}
}

// pagedRotation is the steady-state mix of BenchmarkPagedServe: scans over
// five disjoint column groups, the shape of e2ebench's paged workload, whose
// union holds more than a quarter of the column bytes.
func pagedRotation() []query.Query {
	return []query.Query{
		{Fields: []string{"package", "market_category"},
			Filters: []query.Filter{{Field: "market", Op: query.OpEq, Value: "Tencent Myapp"}}, Limit: 50},
		{Fields: []string{"rating", "downloads"},
			Filters: []query.Filter{{Field: "version_code", Op: query.OpLe, Value: 20}},
			Sort:    []query.SortKey{{Field: "downloads", Desc: true}}, Limit: 50},
		{Fields: []string{"developer_name", "update_date"},
			Filters: []query.Filter{{Field: "release_date", Op: query.OpGe, Value: "2017-01-01"}}, Limit: 50},
		{Fields: []string{"category", "has_ads"},
			Filters: []query.Filter{{Field: "has_iap", Op: query.OpEq, Value: true}, {Field: "listed_apk_size", Op: query.OpGe, Value: 1000000}}, Limit: 50},
		{Fields: []string{"app_name", "version_name"},
			Filters: []query.Filter{{Field: "app_name", Op: query.OpContains, Value: "App 1"}}, Limit: 50},
	}
}
