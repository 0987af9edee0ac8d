package query

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// TestMain shrinks the zone-map segment size for the whole package run so
// the hundreds-of-rows test datasets span many segments and the pruning,
// skip-jump and stats paths are exercised everywhere — at the production
// segment size they would all fit one segment and zone maps would be
// untestable without million-row fixtures.
func TestMain(m *testing.M) {
	segmentSize = 64
	os.Exit(m.Run())
}

// testDictRegistry is testIndexedRegistry with the string fields hinted for
// dictionary encoding: market is genuinely low-cardinality (the intended
// case), name is near-unique so large datasets exercise the cardinality
// bail-out while small ones encode.
func testDictRegistry() *Registry[row] {
	r := testIndexedRegistry()
	if err := r.MarkDictionary("name", "market"); err != nil {
		panic(err)
	}
	return r
}

// --- bitmap containers ---------------------------------------------------

// refBitmap is the trivial reference: a map of set rows.
type refBitmap map[int32]bool

func buildBoth(rows []int32) (*bitmap, refBitmap) {
	bm := &bitmap{}
	ref := refBitmap{}
	for _, r := range rows {
		bm.add(r)
		ref[r] = true
	}
	return bm, ref
}

// ascendingSample draws an ascending row sample: density is the rough
// fraction of [0, limit) kept, so >4096-per-container densities force the
// array -> dense conversion.
func ascendingSample(rng *rand.Rand, limit int32, density float64) []int32 {
	var rows []int32
	for r := int32(0); r < limit; r++ {
		if rng.Float64() < density {
			rows = append(rows, r)
		}
	}
	return rows
}

func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name    string
		limit   int32
		density float64
	}{
		{"sparse_one_container", 1 << 16, 0.01},
		{"dense_one_container", 1 << 16, 0.30}, // ~19k rows: forces dense form
		{"sparse_many_containers", 5 << 16, 0.002},
		{"dense_many_containers", 3 << 16, 0.25},
		{"full_container", 1 << 16, 1.01},
		{"empty", 1 << 16, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := ascendingSample(rng, tc.limit, tc.density)
			bm, ref := buildBoth(rows)
			if bm.n != len(rows) {
				t.Fatalf("cardinality %d, want %d", bm.n, len(rows))
			}
			got := bm.rows()
			if !reflect.DeepEqual(got, append(make([]int32, 0, len(rows)), rows...)) {
				t.Fatalf("rows() diverges: got %d rows, want %d in ascending order", len(got), len(rows))
			}
			for probe := int32(0); probe < tc.limit; probe += 97 {
				if bm.contains(probe) != ref[probe] {
					t.Fatalf("contains(%d) = %v, want %v", probe, bm.contains(probe), ref[probe])
				}
			}
		})
	}
}

func TestBitmapAndOr(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		limit := int32(1<<16 + rng.Intn(3<<16))
		a, refA := buildBoth(ascendingSample(rng, limit, []float64{0.001, 0.05, 0.2}[trial%3]))
		b, refB := buildBoth(ascendingSample(rng, limit, []float64{0.15, 0.002, 0.08}[trial%3]))
		c, refC := buildBoth(ascendingSample(rng, limit, 0.01))

		and := bmAnd(a, b)
		wantAnd := 0
		for r := range refA {
			if refB[r] {
				wantAnd++
			}
		}
		if and.n != wantAnd {
			t.Fatalf("trial %d: AND cardinality %d, want %d", trial, and.n, wantAnd)
		}
		prev := int32(-1)
		for _, r := range and.rows() {
			if !refA[r] || !refB[r] {
				t.Fatalf("trial %d: AND emitted row %d not in both inputs", trial, r)
			}
			if r <= prev {
				t.Fatalf("trial %d: AND rows not strictly ascending at %d", trial, r)
			}
			prev = r
		}

		or := bmOrAll([]*bitmap{a, b, nil, c, a}) // nils ignored, duplicates idempotent
		union := map[int32]bool{}
		for r := range refA {
			union[r] = true
		}
		for r := range refB {
			union[r] = true
		}
		for r := range refC {
			union[r] = true
		}
		if or.n != len(union) {
			t.Fatalf("trial %d: OR cardinality %d, want %d", trial, or.n, len(union))
		}
		prev = -1
		for _, r := range or.rows() {
			if !union[r] {
				t.Fatalf("trial %d: OR emitted row %d not in any input", trial, r)
			}
			if r <= prev {
				t.Fatalf("trial %d: OR rows not strictly ascending at %d", trial, r)
			}
			prev = r
		}
	}
}

// --- dictionary encoding -------------------------------------------------

// TestDictEncodingLayout pins the layout contract: a hinted low-cardinality
// column encodes (sorted dictionary, plain slice dropped), and a hinted
// high-cardinality column silently keeps the plain layout.
func TestDictEncodingLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 600 // above dictCardLimit floor so unique names must bail
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{
			name:    fmt.Sprintf("unique-app-%05d", i),
			market:  testMarkets[rng.Intn(len(testMarkets))],
			size:    int64(i),
			hasSize: true,
			date:    day(1 + i%28),
		}
	}
	e := NewEngine(testDictRegistry(), rows)

	market := e.columnFor(e.ordinals["market"])
	if market.dict == nil || market.strs != nil {
		t.Fatalf("market column not dictionary-encoded: dict=%v strs=%d", market.dict, len(market.strs))
	}
	for k := 1; k < len(market.dict); k++ {
		if market.dict[k-1] >= market.dict[k] {
			t.Fatalf("dictionary not sorted/deduped at %d: %q >= %q", k, market.dict[k-1], market.dict[k])
		}
	}
	for i := range rows {
		if got := market.str(i); got != rows[i].market {
			t.Fatalf("row %d decodes to %q, want %q", i, got, rows[i].market)
		}
	}

	name := e.columnFor(e.ordinals["name"])
	if name.dict != nil {
		t.Fatalf("near-unique name column encoded anyway (dict size %d); want cardinality bail-out", len(name.dict))
	}
}

// TestBitmapExplain pins the planner's index naming on dictionary columns:
// == and in answer from bitmap posting lists, and mixed intersections name
// every index used.
func TestBitmapExplain(t *testing.T) {
	e := NewEngine(testDictRegistry(), testRows())

	res, err := e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpEq, Value: "Tencent Myapp"}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex := res.Meta.Explain
	if ex == nil || ex.IndexUsed != "bitmap(market)" || ex.Candidates != 2 || ex.ResidualScanned != 0 {
		t.Fatalf("bitmap-eq explain = %+v", ex)
	}

	// Duplicate in-operands must not double-count the posting union (2 rows
	// of 5 stays under the n/2 demotion threshold only with exact dedup).
	res, err = e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpIn, Value: []any{"Baidu Market", "Baidu Market", "No Such Market"}},
		{Field: "size", Op: OpGe, Value: float64(300)}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex = res.Meta.Explain
	if ex == nil || ex.IndexUsed != "bitmap(market)+sorted(size)" {
		t.Fatalf("intersection explain = %+v", ex)
	}
	oracle, err := e.ScanOracle(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpIn, Value: []any{"Baidu Market", "Baidu Market", "No Such Market"}},
		{Field: "size", Op: OpGe, Value: float64(300)}}})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, oracle.Rows) {
		t.Fatalf("bitmap intersection diverges from oracle: %v vs %v", res.Rows, oracle.Rows)
	}

	// An operand absent from the dictionary is an empty posting list: no
	// rows, still answered by the index.
	res, err = e.Scan(Query{Filters: []Filter{{Field: "market", Op: OpEq, Value: "No Such Market"}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if res.Meta.TotalMatched != 0 || res.Meta.Explain.IndexUsed != "bitmap(market)" {
		t.Fatalf("missing-operand scan = %+v", res.Meta)
	}
}

// TestDictPlannerMatchesOracleRandom re-runs the randomized scan equivalence
// suite with dictionary encoding forced on the string fields, and
// additionally cross-checks it against an engine over the same rows whose
// registry has no dictionary hints, so every string column stays plain —
// three paths, one answer.
func TestDictPlannerMatchesOracleRandom(t *testing.T) {
	const queriesPerSeed = 120
	for seed := int64(31); seed <= 36; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(400)
			rows := randomRows(rng, n)
			compressed := NewEngine(testDictRegistry(), rows)
			plain := NewEngine(testIndexedRegistry(), rows)
			for i := 0; i < queriesPerSeed; i++ {
				q := randomQuery(rng)
				planned, err1 := compressed.Scan(q)
				oracle, err2 := compressed.ScanOracle(q)
				plainRes, err3 := plain.Scan(q)
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("query %d (%+v): errs %v / %v / %v", i, q, err1, err2, err3)
				}
				requireSameResult(t, q, planned, oracle)
				if !reflect.DeepEqual(planned.Rows, plainRes.Rows) ||
					planned.Meta.TotalMatched != plainRes.Meta.TotalMatched {
					t.Fatalf("query %d (%+v): dictionary layout diverges from plain layout", i, q)
				}
			}
		})
	}
}

// TestDictAggregateMatchesOracle re-runs the randomized aggregation
// equivalence suite on dictionary-encoded columns, covering the packed
// group-key fast path (market/name/flagged group-bys), the per-code distinct
// and topk cells, and the same three-way cross-check as the scan suite.
func TestDictAggregateMatchesOracle(t *testing.T) {
	const requestsPerSeed = 100
	for seed := int64(41); seed <= 46; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(400)
			rows := randomRows(rng, n)
			compressed := NewEngine(testDictRegistry(), rows)
			plain := NewEngine(testIndexedRegistry(), rows)
			for i := 0; i < requestsPerSeed; i++ {
				a := randomAggregate(rng)
				planned, err1 := compressed.Aggregate(a)
				oracle, err2 := compressed.AggregateOracle(a)
				plainRes, err3 := plain.Aggregate(a)
				if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
					t.Fatalf("request %d (%+v): errs %v / %v / %v", i, a, err1, err2, err3)
				}
				if err1 != nil {
					continue
				}
				requireSameAggregate(t, a, planned, oracle)
				if !reflect.DeepEqual(planned.Rows, plainRes.Rows) {
					t.Fatalf("request %d (%+v): dictionary layout diverges from plain layout", i, a)
				}
			}
		})
	}
}

// TestPackedGroupKeys asserts the packed-uint64 grouping fast path actually
// engages for all-dictionary group-bys, still produces oracle-identical
// groups when the group columns carry nulls, and is what a dictionary
// group-by runs: the same group-by allocates less over dictionary codes than
// over the plain layout's byte keys.
func TestPackedGroupKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rows := randomRows(rng, 300)
	e := NewEngine(testDictRegistry(), rows)

	cols := []*column{e.columnFor(e.ordinals["market"])}
	if _, keyBits, ok := packedKeyer(cols); !ok {
		t.Fatal("packedKeyer refused a single dictionary column")
	} else if want := bits.Len(uint(len(cols[0].dict))); keyBits != want {
		t.Fatalf("packedKeyer keyBits = %d, want %d", keyBits, want)
	}
	cols = append(cols, e.columnFor(e.ordinals["size"]))
	if _, _, ok := packedKeyer(cols); ok {
		t.Fatal("packedKeyer accepted a non-dictionary column")
	}

	a := Aggregate{
		GroupBy:    []string{"market", "name"},
		Aggregates: []AggSpec{{Op: AggCount, As: "n"}, {Op: AggDistinct, Field: "name", As: "names"}},
	}
	planned, err1 := e.Aggregate(a)
	oracle, err2 := e.AggregateOracle(a)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v / %v", err1, err2)
	}
	requireSameAggregate(t, a, planned, oracle)

	// AllocsPerRun pins GOMAXPROCS to 1 and its warm-up run builds the
	// columns, so both counts are deterministic.
	rows = randomRows(rng, 2000)
	byKeys := Aggregate{GroupBy: []string{"market", "flagged"}, Aggregates: []AggSpec{{Op: AggCount, As: "n"}}}
	allocs := func(reg *Registry[row]) float64 {
		e := NewEngine(reg, rows)
		return testing.AllocsPerRun(5, func() {
			if _, err := e.Aggregate(byKeys); err != nil {
				t.Fatal(err)
			}
		})
	}
	if dict, plain := allocs(testDictRegistry()), allocs(testIndexedRegistry()); dict >= plain {
		t.Fatalf("market × flagged group-by: %v allocations over dictionary codes, %v over the plain layout; want fewer (packed keys)", dict, plain)
	}
}

// --- zone maps -----------------------------------------------------------

// clusteredRows builds rows whose size grows with the row index (values
// cluster per segment, the layout zone maps exploit) with a null stripe in
// the middle segments.
func clusteredRows(n int) []row {
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{
			name:    fmt.Sprintf("app-%04d", i),
			market:  testMarkets[i%len(testMarkets)],
			size:    int64(i),
			hasSize: i < n/3 || i >= n/2, // a fully-null stripe of segments
			date:    day(1 + (i/10)%28),
		}
	}
	return rows
}

// TestZoneMapSkipsSegments drives a range query over a clustered,
// unindexable dataset and asserts the zone maps skipped segments, that the
// skip/scan tallies exactly cover the dataset, and that the result is still
// oracle-identical.
func TestZoneMapSkipsSegments(t *testing.T) {
	n := segmentSize * 10
	// Plain registry: no secondary indexes, so the range runs as a full
	// column scan and pruning is the only accelerator.
	e := NewEngine(testRegistry(), clusteredRows(n))
	q := Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "size", Op: OpGe, Value: float64(n - segmentSize - 3)}}}
	res, err := e.Scan(q)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex := res.Meta.Explain
	if ex == nil || ex.SegmentsSkipped == 0 {
		t.Fatalf("zone maps skipped nothing: explain = %+v", ex)
	}
	if ex.SegmentRowsSkipped+ex.SegmentRowsScanned != ex.DatasetRows {
		t.Fatalf("segment tallies %d+%d do not cover dataset %d",
			ex.SegmentRowsSkipped, ex.SegmentRowsScanned, ex.DatasetRows)
	}
	if ex.SegmentsSkipped+ex.SegmentsScanned != (n+segmentSize-1)/segmentSize {
		t.Fatalf("segment counts %d+%d do not cover %d segments",
			ex.SegmentsSkipped, ex.SegmentsScanned, (n+segmentSize-1)/segmentSize)
	}
	if res.Meta.Scanned != ex.SegmentRowsScanned {
		t.Fatalf("Scanned = %d, want the %d zone-scanned rows", res.Meta.Scanned, ex.SegmentRowsScanned)
	}
	oracle, err := e.ScanOracle(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, oracle.Rows) || res.Meta.TotalMatched != oracle.Meta.TotalMatched {
		t.Fatal("zone-pruned scan diverges from oracle")
	}
}

// TestZonePruningOperators sweeps every operator with prunable shapes over
// the clustered dataset and checks (a) equivalence with the oracle and (b)
// that the segment tallies, when pruning ran, cover the dataset.
func TestZonePruningOperators(t *testing.T) {
	n := segmentSize * 8
	e := NewEngine(testRegistry(), clusteredRows(n))
	mid := float64(n / 2)
	queries := []Query{
		{Filters: []Filter{{Field: "size", Op: OpEq, Value: mid}}},
		{Filters: []Filter{{Field: "size", Op: OpNe, Value: mid}}},
		{Filters: []Filter{{Field: "size", Op: OpLt, Value: float64(segmentSize + 5)}}},
		{Filters: []Filter{{Field: "size", Op: OpLe, Value: float64(segmentSize)}}},
		{Filters: []Filter{{Field: "size", Op: OpGt, Value: float64(n - segmentSize)}}},
		{Filters: []Filter{{Field: "size", Op: OpGe, Value: mid}}},
		{Filters: []Filter{{Field: "size", Op: OpIn, Value: []any{float64(3), mid, float64(n + 99)}}}},
		{Filters: []Filter{{Field: "size", Op: OpIsNull}}},
		{Filters: []Filter{{Field: "size", Op: OpIsNull, Value: false}}},
		{Filters: []Filter{{Field: "size", Op: OpGe, Value: mid}, {Field: "name", Op: OpContains, Value: "app"}}},
	}
	for qi, q := range queries {
		planned, err1 := e.Scan(q)
		oracle, err2 := e.ScanOracle(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d: errs %v / %v", qi, err1, err2)
		}
		if !reflect.DeepEqual(planned.Rows, oracle.Rows) ||
			planned.Meta.TotalMatched != oracle.Meta.TotalMatched {
			t.Fatalf("query %d (%+v): zone-pruned scan diverges from oracle", qi, q)
		}
		ex := planned.Meta.Explain
		if ex.SegmentsSkipped+ex.SegmentsScanned > 0 &&
			ex.SegmentRowsSkipped+ex.SegmentRowsScanned != ex.DatasetRows {
			t.Fatalf("query %d: tallies %d+%d do not cover %d rows",
				qi, ex.SegmentRowsSkipped, ex.SegmentRowsScanned, ex.DatasetRows)
		}
	}
}
