package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testIndexedRegistry is testRegistry with the index hints the planner needs
// to exercise the sorted index on every kind. Neither string is
// dictionary-hinted, so no code bitmap answers here; engines over
// testDictRegistry exercise those.
func testIndexedRegistry() *Registry[row] {
	r := testRegistry()
	if err := r.MarkIndexable("name", "market", "size", "rating", "flagged", "date"); err != nil {
		panic(err)
	}
	return r
}

var testMarkets = []string{"Google Play", "Tencent Myapp", "Baidu Market", "Huawei Market", "Xiaomi Market"}

// randomRows generates a null-heavy dataset: ~1/3 of sizes and ratings are
// null, sizes and dates collide often (index posting lists and sort ties),
// names are near-unique.
func randomRows(rng *rand.Rand, n int) []row {
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{
			name:      fmt.Sprintf("app-%c%d", 'a'+rng.Intn(26), rng.Intn(n)),
			market:    testMarkets[rng.Intn(len(testMarkets))],
			size:      int64(rng.Intn(40)),
			hasSize:   rng.Intn(3) != 0,
			rating:    float64(rng.Intn(50)) / 10,
			hasRating: rng.Intn(3) != 0,
			flagged:   rng.Intn(2) == 0,
			date:      day(1 + rng.Intn(28)),
		}
	}
	return rows
}

// randomQuery builds a valid query over the test registry: random operators
// × fields × sorts × limits, operands drawn to collide with the data.
func randomQuery(rng *rand.Rand) Query {
	fieldNames := []string{"name", "market", "size", "rating", "flagged", "date"}
	q := Query{}
	if rng.Intn(5) > 0 {
		for _, f := range fieldNames {
			if rng.Intn(2) == 0 {
				q.Fields = append(q.Fields, f)
			}
		}
	}
	operand := func(field string) any {
		switch field {
		case "name":
			return fmt.Sprintf("app-%c%d", 'a'+rng.Intn(26), rng.Intn(50))
		case "market":
			if rng.Intn(8) == 0 {
				return "No Such Market"
			}
			return testMarkets[rng.Intn(len(testMarkets))]
		case "size":
			return float64(rng.Intn(45)) // JSON spelling of an int operand
		case "rating":
			return float64(rng.Intn(50)) / 10
		case "flagged":
			return rng.Intn(2) == 0
		default: // date
			return day(1 + rng.Intn(30)).Format(time.RFC3339)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		field := fieldNames[rng.Intn(len(fieldNames))]
		var ops []Op
		switch field {
		case "flagged":
			ops = []Op{OpEq, OpNe, OpIsNull, OpIn}
		case "name", "market":
			ops = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIn, OpContains, OpIsNull}
		default:
			ops = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIn, OpIsNull}
		}
		op := ops[rng.Intn(len(ops))]
		f := Filter{Field: field, Op: op}
		switch op {
		case OpIsNull:
			if rng.Intn(2) == 0 {
				f.Value = rng.Intn(2) == 0
			}
		case OpIn:
			list := make([]any, 0, 3)
			for j := 1 + rng.Intn(3); j > 0; j-- {
				list = append(list, operand(field))
			}
			if rng.Intn(4) == 0 { // duplicate operands must not double-count
				list = append(list, list[0])
			}
			f.Value = list
		case OpContains:
			f.Value = string([]byte{byte('a' + rng.Intn(26))})
		default:
			f.Value = operand(field)
		}
		q.Filters = append(q.Filters, f)
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.Sort = append(q.Sort, SortKey{
			Field: fieldNames[rng.Intn(len(fieldNames))],
			Desc:  rng.Intn(2) == 0,
		})
	}
	switch rng.Intn(4) {
	case 0:
		q.Limit = 1 + rng.Intn(5)
	case 1:
		q.Limit = 1 + rng.Intn(200)
	}
	return q
}

// requireSameResult asserts planner output is byte-identical to the oracle:
// fields, every row (order included), and the shared meta counts.
func requireSameResult(t *testing.T, q Query, planned, oracle *Result) {
	t.Helper()
	if !reflect.DeepEqual(planned.Fields, oracle.Fields) {
		t.Fatalf("query %+v:\nfields diverge:\nplanned %+v\noracle  %+v", q, planned.Fields, oracle.Fields)
	}
	if planned.Meta.TotalMatched != oracle.Meta.TotalMatched || planned.Meta.Returned != oracle.Meta.Returned {
		t.Fatalf("query %+v:\nmeta diverges: planned %+v, oracle %+v", q, planned.Meta, oracle.Meta)
	}
	if !reflect.DeepEqual(planned.Rows, oracle.Rows) {
		pj, _ := json.Marshal(planned.Rows)
		oj, _ := json.Marshal(oracle.Rows)
		t.Fatalf("query %+v:\nrows diverge:\nplanned %s\noracle  %s", q, pj, oj)
	}
}

// TestPlannerMatchesOracleRandom is the randomized equivalence suite: for
// many random (dataset, query) pairs the planned scan must return exactly
// what the row-at-a-time oracle returns.
func TestPlannerMatchesOracleRandom(t *testing.T) {
	const queriesPerSeed = 150
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(400)
			e := NewEngine(testIndexedRegistry(), randomRows(rng, n))
			for i := 0; i < queriesPerSeed; i++ {
				q := randomQuery(rng)
				planned, err1 := e.Scan(q)
				oracle, err2 := e.ScanOracle(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("query %d (%+v): planned err %v, oracle err %v", i, q, err1, err2)
				}
				requireSameResult(t, q, planned, oracle)
				if planned.Meta.Explain == nil {
					t.Fatalf("query %d: planned scan has no explain block", i)
				}
				if c := planned.Meta.Explain.Candidates; c < planned.Meta.TotalMatched || c > n {
					t.Fatalf("query %d: candidates %d outside [matched=%d, n=%d]",
						i, c, planned.Meta.TotalMatched, n)
				}
			}
		})
	}
}

// TestPlannerMatchesOracleParallel runs the same equivalence over a dataset
// large enough that both match paths fan out across CPUs.
func TestPlannerMatchesOracleParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := NewEngine(testIndexedRegistry(), randomRows(rng, parallelThreshold*2+17))
	for i := 0; i < 40; i++ {
		q := randomQuery(rng)
		planned, err1 := e.Scan(q)
		oracle, err2 := e.ScanOracle(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d (%+v): planned err %v, oracle err %v", i, q, err1, err2)
		}
		requireSameResult(t, q, planned, oracle)
	}
}

// TestPlannerExplain pins the Explain/Scanned contract on hand-built
// queries: which index answers which filter, candidate counts, and the
// residual-scanned semantics of Meta.Scanned.
func TestPlannerExplain(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())

	// Sorted index answers ==, no residual left: nothing evaluated per row.
	res, err := e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpEq, Value: "Tencent Myapp"}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex := res.Meta.Explain
	if ex == nil || ex.IndexUsed != "sorted(market)" || ex.DatasetRows != 5 || ex.Candidates != 2 || ex.ResidualScanned != 0 {
		t.Fatalf("eq explain = %+v", ex)
	}
	if res.Meta.Scanned != 0 {
		t.Fatalf("Scanned = %d, want 0 (index answered everything)", res.Meta.Scanned)
	}

	// Sorted index answers the range (bravo and delta at size 300; a span
	// larger than half the dataset would be demoted to a residual filter);
	// the contains filter stays residual and is only evaluated over the
	// candidates.
	res, err = e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "size", Op: OpGe, Value: float64(300)},
		{Field: "name", Op: OpContains, Value: "l"}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex = res.Meta.Explain
	if ex == nil || ex.IndexUsed != "sorted(size)" || ex.Candidates != 2 || ex.ResidualScanned != 2 {
		t.Fatalf("range+residual explain = %+v", ex)
	}
	if res.Meta.Scanned != 2 || res.Meta.TotalMatched != 1 {
		t.Fatalf("meta = %+v, want Scanned 2, TotalMatched 1 (delta)", res.Meta)
	}

	// Unindexable operator: full column scan preserves the old Scanned
	// meaning (dataset size) in both Scanned and Candidates.
	res, err = e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpNe, Value: "Google Play"}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex = res.Meta.Explain
	if ex == nil || ex.IndexUsed != "" || ex.Candidates != 5 || ex.ResidualScanned != 5 || res.Meta.Scanned != 5 {
		t.Fatalf("full-scan explain = %+v, meta = %+v", ex, res.Meta)
	}

	// Two indexed filters intersect posting lists; explain names both.
	res, err = e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "market", Op: OpIn, Value: []any{"Baidu Market"}},
		{Field: "size", Op: OpGe, Value: float64(300)}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex = res.Meta.Explain
	if ex == nil || ex.IndexUsed != "sorted(market)+sorted(size)" || ex.Candidates != 1 {
		t.Fatalf("intersection explain = %+v", ex)
	}
	if res.Meta.TotalMatched != 1 {
		t.Fatalf("TotalMatched = %d, want 1 (delta)", res.Meta.TotalMatched)
	}

	// A two-sided range merges into one sorted window that answers both
	// bounds exactly. size > 50 alone spans 3 of 5 rows and would be
	// demoted; the merged window (50, 100] holds only alpha.
	res, err = e.Scan(Query{Fields: []string{"name"}, Filters: []Filter{
		{Field: "size", Op: OpGt, Value: float64(50)},
		{Field: "size", Op: OpLe, Value: float64(100)}}})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ex = res.Meta.Explain
	if ex == nil || ex.IndexUsed != "sorted(size)" || ex.Candidates != 1 || ex.ResidualScanned != 0 {
		t.Fatalf("two-sided window explain = %+v", ex)
	}
	wantNames(t, res, "alpha")
}

// zoneSpellings are the UTC offsets a test instant may be spelled in. The
// same instant under two offsets must compare equal: ordering is by
// instant, never by wall clock.
var zoneSpellings = []*time.Location{time.UTC, time.FixedZone("CST", 8*3600), time.FixedZone("PDT", -7*3600)}

// randomInstant draws one of twenty instants (ten days at a 12-hour step)
// spelled in a random zone, so equal instants often differ in offset.
func randomInstant(rng *rand.Rand) time.Time {
	t := day(1 + rng.Intn(10)).Add(time.Duration(12*rng.Intn(2)) * time.Hour)
	return t.In(zoneSpellings[rng.Intn(len(zoneSpellings))])
}

// windowRows is randomRows with dates drawn by randomInstant.
func windowRows(rng *rand.Rand, n int) []row {
	rows := randomRows(rng, n)
	for i := range rows {
		rows[i].date = randomInstant(rng)
	}
	return rows
}

// randomWindowQuery puts 2–3 bounds on one sorted field — size, rating or
// date — so windows come out narrow, wide, inverted (empty) or pinned by an
// == on the float and time fields. Sometimes an indexed == on another field
// joins them.
func randomWindowQuery(rng *rand.Rand) Query {
	field := []string{"size", "rating", "date"}[rng.Intn(3)]
	operand := func() any {
		switch field {
		case "size":
			return float64(rng.Intn(45))
		case "rating":
			return float64(rng.Intn(50)) / 10
		}
		return randomInstant(rng).Format(time.RFC3339)
	}
	ops := []Op{OpLt, OpLe, OpGt, OpGe}
	if field != "size" {
		ops = append(ops, OpEq)
	}
	q := Query{Fields: []string{"name", field}}
	for i := 2 + rng.Intn(2); i > 0; i-- {
		q.Filters = append(q.Filters, Filter{Field: field, Op: ops[rng.Intn(len(ops))], Value: operand()})
	}
	if rng.Intn(3) == 0 {
		q.Filters = append(q.Filters, Filter{Field: "market", Op: OpEq, Value: testMarkets[rng.Intn(len(testMarkets))]})
	}
	if rng.Intn(2) == 0 {
		q.Sort = []SortKey{{Field: field, Desc: rng.Intn(2) == 0}}
		q.Limit = rng.Intn(20)
	}
	return q
}

// TestRangeWindowsMatchOracle checks merged sorted-index windows against
// the oracle, and the same queries on an unindexed registry, where every
// bound runs as a typed residual predicate. On the indexed engine a window
// the planner keeps is exact: one sorted(field) list, nothing residual.
func TestRangeWindowsMatchOracle(t *testing.T) {
	const queriesPerSeed = 200
	for seed := int64(51); seed <= 56; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			rows := windowRows(rng, 50+rng.Intn(400))
			indexed := NewEngine(testIndexedRegistry(), rows)
			unindexed := NewEngine(testRegistry(), rows)
			for i := 0; i < queriesPerSeed; i++ {
				q := randomWindowQuery(rng)
				planned, err1 := indexed.Scan(q)
				oracle, err2 := indexed.ScanOracle(q)
				residual, err3 := unindexed.Scan(q)
				residualOracle, err4 := unindexed.ScanOracle(q)
				if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
					t.Fatalf("query %d (%+v): errs %v / %v / %v / %v", i, q, err1, err2, err3, err4)
				}
				requireSameResult(t, q, planned, oracle)
				requireSameResult(t, q, residual, residualOracle)
				ex, field := planned.Meta.Explain, q.Filters[0].Field
				onlyWindow := q.Filters[len(q.Filters)-1].Field == field
				if onlyWindow && ex.IndexUsed == "sorted("+field+")" &&
					(ex.ResidualScanned != 0 || ex.Candidates != planned.Meta.TotalMatched) {
					t.Fatalf("query %d (%+v): window not exact: %+v", i, q, ex)
				}
				if strings.Count(ex.IndexUsed, "sorted("+field+")") > 1 {
					t.Fatalf("query %d (%+v): window split into %q", i, q, ex.IndexUsed)
				}
			}
		})
	}
}

// memFetcher pages columns out of an engine's export, charging every column
// the same fixed size against the budget.
type memFetcher map[string]*ColumnData

const memColumnBytes = 1 << 10

func (f memFetcher) Columns() []string {
	names := make([]string, 0, len(f))
	for name := range f {
		names = append(names, name)
	}
	return names
}

func (f memFetcher) ColumnBytes(string) int64 { return memColumnBytes }

func (f memFetcher) FetchColumn(_ context.Context, name string) (*ColumnData, error) {
	return f[name], nil
}

// TestPagedRangePlansWithoutIndexes: a paged engine answers two-sided ranges
// by residual scan — no merged window, no sorted index built outside the
// page budget — and under a two-column budget stays within it while the
// requests rotate over more columns than fit.
func TestPagedRangePlansWithoutIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rows := windowRows(rng, 300)
	materialized := NewEngine(testIndexedRegistry(), rows)
	fetcher := memFetcher{}
	for _, cd := range materialized.ExportColumns() {
		cd := cd
		fetcher[cd.Name] = &cd
	}
	pool := NewPagePool(2*memColumnBytes, 0, time.Millisecond)
	paged, err := NewEnginePaged(testIndexedRegistry(), rows, fetcher, pool)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Fields: []string{"name"}, Filters: []Filter{
			{Field: "size", Op: OpGt, Value: float64(5)}, {Field: "size", Op: OpLe, Value: float64(9)}}},
		{Fields: []string{"rating"}, Filters: []Filter{
			{Field: "date", Op: OpGe, Value: "2018-05-03"}, {Field: "date", Op: OpLt, Value: "2018-05-04T08:00:00+08:00"}}},
		{Fields: []string{"market"}, Filters: []Filter{
			{Field: "rating", Op: OpGe, Value: 1.5}, {Field: "rating", Op: OpLt, Value: 2.0}}},
	}
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			res, err := paged.Scan(q)
			if err != nil {
				t.Fatalf("pass %d query %d: %v", pass, i, err)
			}
			oracle, err := materialized.ScanOracle(q)
			if err != nil {
				t.Fatalf("oracle %d: %v", i, err)
			}
			requireSameResult(t, q, res, oracle)
			if res.Meta.TotalMatched == 0 {
				t.Fatalf("query %d matches nothing; it should select a window", i)
			}
			if ex := res.Meta.Explain; ex.IndexUsed != "" {
				t.Fatalf("pass %d query %d: paged engine used index %q", pass, i, ex.IndexUsed)
			}
			if st := paged.PageStats(); st.ResidentBytes > st.Budget {
				t.Fatalf("pass %d query %d: resident %d over budget %d", pass, i, st.ResidentBytes, st.Budget)
			}
		}
	}
	for ord := range paged.sortedIdx {
		if paged.sortedIdx[ord].ix.Load() != nil {
			t.Fatalf("paged engine built a sorted index on %s", paged.reg.order[ord])
		}
	}
	if st := paged.PageStats(); st.Evictions == 0 {
		t.Fatalf("rotation over five columns under a two-column budget never evicted: %+v", st)
	}
}

// edgeInstants are instants a time column's planes must carry exactly:
// before 1970 (negative seconds, one a nanosecond short of the epoch), the
// epoch, three sub-second instants one nanosecond and half a second apart,
// and the last nanosecond of year 9999.
var edgeInstants = []time.Time{
	time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
	time.Unix(0, 0).UTC(),
	time.Date(2018, 5, 1, 12, 0, 0, 1, time.UTC),
	time.Date(2018, 5, 1, 12, 0, 0, 2, time.UTC),
	time.Date(2018, 5, 1, 12, 0, 0, 500000000, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
}

// edgeSpellings are zoneSpellings plus a 45-minute offset.
var edgeSpellings = append(append([]*time.Location{}, zoneSpellings...), time.FixedZone("NPT", 5*3600+45*60))

// edgeTimeRows spells every edge instant in every zone, reps times over, in
// instant order so that zone maps prune. Which spelling comes first rotates
// per instant, so groups on the date start under different offsets. Every
// seventh row has a null date.
func edgeTimeRows(reps int) []row {
	var rows []row
	for k, inst := range edgeInstants {
		for r := 0; r < reps; r++ {
			for s := range edgeSpellings {
				i := len(rows)
				rw := row{name: fmt.Sprintf("t%03d", i), market: testMarkets[i%3], size: int64(i % 5), hasSize: true,
					date: inst.In(edgeSpellings[(k+s)%len(edgeSpellings)])}
				if i%7 == 6 {
					rw.date = time.Time{}
				}
				rows = append(rows, rw)
			}
		}
	}
	return rows
}

// requireSameBytes asserts two results serialize to the same fields and
// rows.
func requireSameBytes(t *testing.T, what string, got, want *Result) {
	t.Helper()
	gj, _ := json.Marshal([]any{got.Fields, got.Rows, got.Meta.TotalMatched, got.Meta.Returned})
	wj, _ := json.Marshal([]any{want.Fields, want.Rows, want.Meta.TotalMatched, want.Meta.Returned})
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s:\ngot  %s\nwant %s", what, gj, wj)
	}
}

// TestPlanarTimeEdges runs edge instants spelled under several offsets
// through every path that reads a time column's planes: filters with both
// bounds, equality across offsets, sort, output, a group-by on the time
// field, min/max/distinct/topk, an append chain, an export/import round
// trip and a paged engine. Every engine must answer byte for byte as the
// oracle does, and a group on the date emits its first row's offset.
func TestPlanarTimeEdges(t *testing.T) {
	rows := edgeTimeRows(5) // 140 rows: three 64-row segments
	reg := testIndexedRegistry()
	compressed := NewEngine(reg, rows)
	imported, err := NewEngineFromColumns(reg, rows, compressed.ExportColumns())
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	// Import adopts the planes only once every nanosecond is in range.
	for _, bad := range []int32{-1, 1e9} {
		cols := compressed.ExportColumns()
		for i := range cols {
			if cols[i].Kind == KindTime {
				cols[i].TimeNsec = append([]int32(nil), cols[i].TimeNsec...)
				cols[i].TimeNsec[3] = bad
			}
		}
		if _, err := NewEngineFromColumns(reg, rows, cols); err == nil {
			t.Fatalf("import accepted nanoseconds %d", bad)
		}
	}
	fetcher := memFetcher{}
	for _, cd := range compressed.ExportColumns() {
		cd := cd
		fetcher[cd.Name] = &cd
	}
	paged, err := NewEnginePaged(reg, rows, fetcher, NewPagePool(0, 0, time.Millisecond))
	if err != nil {
		t.Fatalf("paged: %v", err)
	}
	// Each epoch of the chain builds its date column and sorted index before
	// the next append, so the planes and the permutation are carried.
	appended := NewEngine(reg, rows[:40])
	for _, cut := range [][2]int{{40, 41}, {41, 100}, {100, len(rows)}} {
		if _, err := appended.Scan(Query{Fields: []string{"date"}, Filters: []Filter{
			{Field: "date", Op: OpGe, Value: "1969-12-31T23:59:59Z"}}}); err != nil {
			t.Fatalf("warm: %v", err)
		}
		if appended, err = NewEngineAppend(reg, appended, rows[:cut[1]]); err != nil {
			t.Fatalf("append %v: %v", cut, err)
		}
	}
	engines := []struct {
		name string
		e    *Engine[row]
	}{
		{"compressed", compressed},
		{"imported", imported},
		{"appended", appended},
		{"paged", paged},
	}

	spell := func(k int, loc *time.Location) string { return edgeInstants[k].In(loc).Format(time.RFC3339Nano) }
	utc, cst, pdt := zoneSpellings[0], zoneSpellings[1], zoneSpellings[2]
	var queries []Query
	for lo := range edgeInstants {
		for hi := lo; hi < len(edgeInstants); hi++ {
			queries = append(queries,
				Query{Fields: []string{"name", "date"}, Filters: []Filter{
					{Field: "date", Op: OpGe, Value: spell(lo, utc)}, {Field: "date", Op: OpLt, Value: spell(hi, pdt)}}},
				Query{Fields: []string{"date", "name"}, Filters: []Filter{
					{Field: "date", Op: OpGt, Value: spell(lo, pdt)}, {Field: "date", Op: OpLe, Value: spell(hi, utc)}},
					Sort: []SortKey{{Field: "date", Desc: true}, {Field: "name"}}, Limit: 25})
		}
		loc := cst
		if lo == len(edgeInstants)-1 {
			loc = pdt // +08:00 would spell year 10000, which RFC 3339 cannot parse
		}
		queries = append(queries, Query{Fields: []string{"name", "date", "market"}, Filters: []Filter{
			{Field: "date", Op: OpEq, Value: spell(lo, loc)}}})
	}
	queries = append(queries, Query{Fields: []string{"date", "name"}, Sort: []SortKey{{Field: "date"}, {Field: "name", Desc: true}}})
	for i, q := range queries {
		oracle, err := compressed.ScanOracle(q)
		if err != nil {
			t.Fatalf("query %d (%+v): oracle: %v", i, q, err)
		}
		for _, eng := range engines {
			got, err := eng.e.Scan(q)
			if err != nil {
				t.Fatalf("query %d (%+v): %s: %v", i, q, eng.name, err)
			}
			requireSameBytes(t, fmt.Sprintf("query %d (%+v) on %s", i, q, eng.name), got, oracle)
		}
	}

	byDate := Aggregate{GroupBy: []string{"date"}, Aggregates: []AggSpec{{Op: AggCount, As: "n"}, {Op: AggMax, Field: "size", As: "s"}}}
	aggs := []Aggregate{
		byDate,
		{GroupBy: []string{"date"}, Aggregates: []AggSpec{{Op: AggCount, As: "n"}},
			Filters: []Filter{{Field: "date", Op: OpGt, Value: spell(1, pdt)}, {Field: "date", Op: OpLe, Value: spell(5, utc)}},
			Sort:    []SortKey{{Field: "date", Desc: true}}},
		{GroupBy: []string{"market"}, Aggregates: []AggSpec{
			{Op: AggMin, Field: "date", As: "first"}, {Op: AggMax, Field: "date", As: "last"},
			{Op: AggDistinct, Field: "date", As: "d"}, {Op: AggTopK, Field: "date", K: 3, As: "top"}}},
		{Aggregates: []AggSpec{{Op: AggMin, Field: "date", As: "first"}, {Op: AggMax, Field: "date", As: "last"}}},
	}
	for i, a := range aggs {
		oracle, err := compressed.AggregateOracle(a)
		if err != nil {
			t.Fatalf("aggregate %d: oracle: %v", i, err)
		}
		for _, eng := range engines {
			got, err := eng.e.Aggregate(a)
			if err != nil {
				t.Fatalf("aggregate %d: %s: %v", i, eng.name, err)
			}
			requireSameBytes(t, fmt.Sprintf("aggregate %d (%+v) on %s", i, a, eng.name), got, oracle)
		}
	}

	// Groups come out in first-occurrence order, each carrying its first
	// row's spelling; the null group sits where its first row does.
	type instant struct {
		sec  int64
		nsec int
	}
	var want []any
	seen := map[instant]bool{}
	nullSeen := false
	for _, r := range rows {
		if r.date.IsZero() {
			if !nullSeen {
				nullSeen = true
				want = append(want, nil)
			}
			continue
		}
		if k := (instant{r.date.Unix(), r.date.Nanosecond()}); !seen[k] {
			seen[k] = true
			want = append(want, r.date.Format(time.RFC3339))
		}
	}
	if !strings.Contains(fmt.Sprint(want), "+05:45") || !strings.Contains(fmt.Sprint(want), "+08:00") {
		t.Fatalf("no group starts under a non-UTC offset: %v", want)
	}
	res, err := compressed.Aggregate(byDate)
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for _, r := range res.Rows {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("group values %v, want first spellings %v", got, want)
	}
	requireSameLayout(t, appended, compressed, false)
}

// TestTopKMatchesFullSort drives the bounded-heap selection across every
// limit over several sort shapes and checks it against the oracle's full
// stable sort.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(testIndexedRegistry(), randomRows(rng, 257))
	sorts := [][]SortKey{
		{{Field: "size"}},
		{{Field: "size", Desc: true}, {Field: "name"}},
		{{Field: "rating", Desc: true}, {Field: "market"}, {Field: "date", Desc: true}},
		{{Field: "flagged"}, {Field: "rating"}},
	}
	for si, keys := range sorts {
		for limit := 1; limit <= 40; limit += 3 {
			q := Query{Fields: []string{"name", "size", "rating"}, Sort: keys, Limit: limit}
			planned, err1 := e.Scan(q)
			oracle, err2 := e.ScanOracle(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("sort %d limit %d: errs %v / %v", si, limit, err1, err2)
			}
			requireSameResult(t, q, planned, oracle)
		}
	}
}

// TestConcurrentColdEngine hammers a freshly built engine (no columns, no
// indexes yet) with mixed queries from many goroutines: under -race this
// proves the lazy column and index builds are safe against concurrent first
// touches, and every result must still equal the oracle's.
func TestConcurrentColdEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := randomRows(rng, parallelThreshold+100)
	oracleEngine := NewEngine(testIndexedRegistry(), rows)
	queries := make([]Query, 24)
	oracles := make([]*Result, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng)
		var err error
		if oracles[i], err = oracleEngine.ScanOracle(queries[i]); err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
	}

	cold := NewEngine(testIndexedRegistry(), rows)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(queries); i++ {
				qi := (w + i) % len(queries)
				res, err := cold.Scan(queries[qi])
				if err != nil {
					t.Errorf("cold scan %d: %v", qi, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, oracles[qi].Rows) ||
					res.Meta.TotalMatched != oracles[qi].Meta.TotalMatched {
					t.Errorf("cold scan %d diverged from oracle", qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzScanQuery feeds arbitrary JSON query documents to both execution
// paths: they must agree on accept/reject, and on every accepted query the
// planned rows must be byte-identical to the oracle's.
func FuzzScanQuery(f *testing.F) {
	f.Add([]byte(`{"fields":["name"],"filters":[{"field":"market","op":"==","value":"Tencent Myapp"}]}`))
	f.Add([]byte(`{"filters":[{"field":"size","op":">=","value":100},{"field":"name","op":"contains","value":"a"}],"sort":[{"field":"size","desc":true},{"field":"name"}],"limit":2}`))
	f.Add([]byte(`{"filters":[{"field":"market","op":"in","value":["Baidu Market","Google Play","Baidu Market"]}]}`))
	f.Add([]byte(`{"filters":[{"field":"rating","op":"is_null"}],"sort":[{"field":"date","desc":true}]}`))
	f.Add([]byte(`{"filters":[{"field":"date","op":"<","value":"2018-05-03"}],"limit":1}`))
	f.Add([]byte(`{"filters":[{"field":"flagged","op":"==","value":true},{"field":"size","op":"!=","value":300}]}`))
	f.Add([]byte(`{"filters":[{"field":"size","op":">","value":5},{"field":"size","op":"<=","value":20}],"sort":[{"field":"size"}],"limit":4}`))
	f.Add([]byte(`{"filters":[{"field":"date","op":">=","value":"2018-05-09"},{"field":"date","op":"<","value":"2018-05-03T08:00:00+08:00"}]}`))
	f.Add([]byte(`{"fields":["name","rating"],"filters":[{"field":"rating","op":"<=","value":2.5},{"field":"rating","op":"!=","value":1}],"sort":[{"field":"rating"}]}`))
	f.Add([]byte(`{"sort":[{"field":"rating"}]}`))
	f.Add([]byte(`{"fields":["name","rating"],"sort":[{"field":"rating","desc":true},{"field":"size"}],"limit":9}`))

	rng := rand.New(rand.NewSource(3))
	engines := []*Engine[row]{
		NewEngine(testIndexedRegistry(), randomRows(rng, 64)),
		NewEngine(testIndexedRegistry(), nanRows(rng, blockSize+segmentSize+37)),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseQuery(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range engines {
			planned, err1 := e.Scan(q)
			oracle, err2 := e.ScanOracle(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("paths disagree on validity: planned err %v, oracle err %v (query %+v)", err1, err2, q)
			}
			if err1 != nil {
				return
			}
			if !sameRows(planned.Rows, oracle.Rows) ||
				!reflect.DeepEqual(planned.Fields, oracle.Fields) ||
				planned.Meta.TotalMatched != oracle.Meta.TotalMatched ||
				planned.Meta.Returned != oracle.Meta.Returned {
				t.Fatalf("planned result diverges from oracle on %d rows (query %+v):\nplanned %v\noracle  %v",
					e.Len(), q, planned.Rows, oracle.Rows)
			}
		}
	})
}

// nanRows is randomRows with a quarter of the ratings NaN, which compares
// equal to every value and keeps the rating column off its sorted index.
func nanRows(rng *rand.Rand, n int) []row {
	rows := randomRows(rng, n)
	for i := range rows {
		if rng.Intn(4) == 0 {
			rows[i].rating, rows[i].hasRating = math.NaN(), true
		}
	}
	return rows
}

// sameRows is reflect.DeepEqual over result rows, except that a NaN cell
// equals a NaN cell.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			fx, xFloat := x.(float64)
			fy, yFloat := b[i][j].(float64)
			if xFloat && yFloat && fx != fx && fy != fy {
				continue
			}
			if !reflect.DeepEqual(x, b[i][j]) {
				return false
			}
		}
	}
	return true
}
