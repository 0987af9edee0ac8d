package query

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"testing"
	"time"
)

// krow is the residual-kernel test row: one field of every kind, each of
// which can be null, a unique id to tell rows apart, and an indexable group
// column whose sorted index hands the residual stage a candidate list.
type krow struct {
	id, g, i int64
	f        float64
	s, d     string
	b, c     bool
	t        time.Time
	null     uint8 // bit k set: the k-th of i, f, s, d, b, t, c is null
}

func kernelRegistry() *Registry[krow] {
	r := NewRegistry[krow]()
	field := func(name string, kind Kind, bit int, get func(krow) any) {
		r.MustRegister(Field[krow]{Name: name, Category: "meta", Kind: kind, Nullable: bit >= 0,
			Extract: func(x krow) (any, bool) { return get(x), bit < 0 || x.null&(1<<bit) == 0 }})
	}
	field("id", KindInt, -1, func(x krow) any { return x.id })
	field("g", KindInt, -1, func(x krow) any { return x.g })
	field("i", KindInt, 0, func(x krow) any { return x.i })
	field("f", KindFloat, 1, func(x krow) any { return x.f })
	field("s", KindString, 2, func(x krow) any { return x.s })
	field("d", KindString, 3, func(x krow) any { return x.d })
	field("b", KindBool, 4, func(x krow) any { return x.b })
	field("t", KindTime, 5, func(x krow) any { return x.t })
	field("c", KindBool, 6, func(x krow) any { return x.c })
	if err := r.MarkIndexable("g"); err != nil {
		panic(err)
	}
	if err := r.MarkDictionary("d"); err != nil {
		panic(err)
	}
	return r
}

var (
	kernelBase  = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	kernelDict  = []string{"b", "d", "f", "h"}
	kernelZones = []*time.Location{time.UTC, time.FixedZone("", 8*3600), time.FixedZone("", -5*3600), time.FixedZone("", 5*3600+45*60)}
)

// kernelInstant is row r's instant: 37 minutes apart, with sub-second
// parts, spelled under one of four UTC offsets.
func kernelInstant(r int) time.Time {
	t := kernelBase.Add(time.Duration(r)*37*time.Minute + time.Duration(r%4)*250*time.Millisecond + time.Duration(r%2))
	return t.In(kernelZones[r%len(kernelZones)])
}

// kernelRows builds n rows whose int, float, dictionary and time values grow
// with the row id, so zone maps prune the 64-row test segments. Every 23rd
// float is NaN and every 5th plain string empty. With nulls, each field is
// null on its own fifth of the rows and on all of the third segment.
func kernelRows(n int, nulls bool) []krow {
	rows := make([]krow, n)
	for r := range rows {
		x := krow{
			id: int64(r), g: int64(r % 3), i: int64(r / 8), f: float64(r/8) / 4,
			s: fmt.Sprintf("s%02d", r*7%40),
			d: kernelDict[r*len(kernelDict)/n],
			b: r%3 == 1, c: r%5 < 2,
			t: kernelInstant(r),
		}
		if r%23 == 11 {
			x.f = math.NaN()
		}
		if r%5 == 0 {
			x.s = ""
		}
		if nulls {
			for k := 0; k < 7; k++ {
				if (r+3*k)%5 == 0 || r/64 == 2 {
					x.null |= 1 << k
				}
			}
		}
		rows[r] = x
	}
	return rows
}

// kernelFilters covers every operator on every kind with operands present
// in the data, absent from it (below, between and above the values — for
// the dictionary column, absent from the dictionary), NaN for floats and
// other spellings of a present instant for times, plus a few conjunctions.
func kernelFilters() [][]Filter {
	var out [][]Filter
	one := func(f Filter) { out = append(out, []Filter{f}) }
	ordered := func(field string, operands ...any) {
		for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			for _, v := range operands {
				one(Filter{Field: field, Op: op, Value: v})
			}
		}
	}
	in := func(field string, lists ...[]any) {
		for _, l := range lists {
			one(Filter{Field: field, Op: OpIn, Value: l})
		}
	}
	nan := math.NaN()
	ordered("i", int64(-1), int64(0), int64(40), int64(1e6))
	in("i", []any{int64(0), int64(40), int64(-1)}, []any{int64(-5)})
	ordered("f", -1.0, 0.0, 5.25, 5.3, nan, 1e9)
	in("f", []any{0.25, 5.3}, []any{nan}, []any{-1.0})
	ordered("s", "", "s07", "s070", "zzz")
	in("s", []any{"", "s07"}, []any{"nope"})
	ordered("d", "", "a", "b", "c", "d", "h", "z")
	in("d", []any{"a", "d", "z"}, []any{"c"}, []any{"b", "h"})
	for _, field := range []string{"s", "d"} {
		for _, sub := range []string{"", "d", "7", "q"} {
			one(Filter{Field: field, Op: OpContains, Value: sub})
		}
	}
	for _, op := range []Op{OpEq, OpNe} {
		for _, v := range []bool{true, false} {
			one(Filter{Field: "b", Op: op, Value: v})
		}
	}
	in("b", []any{true}, []any{false, true})
	present := kernelInstant(41).In(kernelZones[2])
	ordered("t", kernelBase, present, present.Add(1), time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 1, 1, 0, 0, 0, 0, kernelZones[3]))
	in("t", []any{present, kernelBase}, []any{present.Add(-1)})
	for _, field := range []string{"i", "f", "s", "d", "b", "t"} {
		one(Filter{Field: field, Op: OpIsNull})
		one(Filter{Field: field, Op: OpIsNull, Value: false})
	}
	out = append(out,
		[]Filter{{Field: "i", Op: OpGe, Value: int64(10)}, {Field: "d", Op: OpNe, Value: "d"}},
		[]Filter{{Field: "t", Op: OpLt, Value: present}, {Field: "b", Op: OpEq, Value: true}, {Field: "s", Op: OpContains, Value: "1"}},
		[]Filter{{Field: "f", Op: OpGe, Value: 1.0}, {Field: "f", Op: OpLt, Value: 3.0}},
	)
	return out
}

// residualExplainDigests pins, per (nulls, row count), an FNV-1a digest of
// the Explain counters every query of TestResidualKernelsMatchOracle
// reports — segments skipped, segment rows scanned, residual rows scanned
// and candidates, over both engines and both paths. The values are those of
// the row-at-a-time residual loop the kernels replaced: moving the residual
// stage to kernels must not change what the planner reports.
var residualExplainDigests = map[string]uint64{
	"nulls=false/n=0":    0x5a6efe0a1570c4fb,
	"nulls=false/n=1":    0x4695a6ad44c3c58b,
	"nulls=false/n=1023": 0xe437f72ced19b365,
	"nulls=false/n=1024": 0x8d894102d87abcac,
	"nulls=false/n=1025": 0xf132deb3cfe6d573,
	"nulls=false/n=209":  0x529f3b1f96170862,
	"nulls=false/n=2129": 0xa163d72daf8bb51e,
	"nulls=true/n=0":     0x5a6efe0a1570c4fb,
	"nulls=true/n=1":     0xba942d6540116bb7,
	"nulls=true/n=1023":  0x1365722b70d5b117,
	"nulls=true/n=1024":  0xf028b8eba4a149ec,
	"nulls=true/n=1025":  0x0abdc17db23f4ef5,
	"nulls=true/n=209":   0x671c486400035886,
	"nulls=true/n=2129":  0x832e11e6d95fbc13,
}

// TestResidualKernelsMatchOracle runs every operator on every kind through
// the residual kernels — a zone-pruned full scan, a candidate list from a
// sorted index (the paged engine has no index and scans in full), and the
// where filter of an aggregate — on materialized and paged engines, with
// and without nulls, at row counts around one block and across several
// segments with an odd tail. Every answer must equal the oracle's, and the
// Explain counters must equal the pinned ones.
func TestResidualKernelsMatchOracle(t *testing.T) {
	filters := kernelFilters()
	sizes := []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 3*segmentSize + 17, 2*blockSize + segmentSize + 17}
	for _, nulls := range []bool{false, true} {
		for _, n := range sizes {
			key := fmt.Sprintf("nulls=%v/n=%d", nulls, n)
			t.Run(key, func(t *testing.T) {
				rows := kernelRows(n, nulls)
				compressed := NewEngine(kernelRegistry(), rows)
				fetcher := memFetcher{}
				for _, cd := range compressed.ExportColumns() {
					cd := cd
					fetcher[cd.Name] = &cd
				}
				paged, err := NewEnginePaged(kernelRegistry(), rows, fetcher, NewPagePool(0, 0, time.Millisecond))
				if err != nil {
					t.Fatal(err)
				}
				engines := []struct {
					name string
					e    *Engine[krow]
				}{{"compressed", compressed}, {"paged", paged}}

				digest := fnv.New64a()
				skipped, listed := 0, 0 // scans that pruned segments / ran over a candidate list
				for _, fs := range filters {
					scans := []Query{
						{Fields: []string{"id"}, Filters: fs},
						{Fields: []string{"id"}, Filters: append([]Filter{{Field: "g", Op: OpEq, Value: int64(1)}}, fs...)},
					}
					agg := Aggregate{Aggregates: []AggSpec{
						{Op: AggCount, Where: fs},
						{Op: AggMean, Field: "i", Where: fs},
						{Op: AggMax, Field: "t", Where: fs},
						{Op: AggMin, Field: "d", Where: fs},
					}}
					oracles := make([]*Result, len(scans))
					for qi, q := range scans {
						if oracles[qi], err = compressed.ScanOracle(q); err != nil {
							t.Fatalf("oracle %+v: %v", q, err)
						}
					}
					aggOracle, err := compressed.AggregateOracle(agg)
					if err != nil {
						t.Fatalf("oracle %+v: %v", agg, err)
					}
					for _, eng := range engines {
						for qi, q := range scans {
							res, err := eng.e.Scan(q)
							if err != nil {
								t.Fatalf("%s %+v: %v", eng.name, q, err)
							}
							requireSameIDs(t, q, res, oracles[qi])
							ex := res.Meta.Explain
							if ex.SegmentsSkipped > 0 {
								skipped++
							}
							if ex.IndexUsed != "" && ex.ResidualScanned > 0 {
								listed++
							}
							fmt.Fprintf(digest, "%s %v %d %d %d %d\n", eng.name, q.Filters,
								ex.SegmentsSkipped, ex.SegmentRowsScanned, ex.ResidualScanned, ex.Candidates)
						}
						res, err := eng.e.Aggregate(agg)
						if err != nil {
							t.Fatalf("%s %+v: %v", eng.name, agg, err)
						}
						requireSameAggregate(t, agg, res, aggOracle)
					}
				}
				if n > 3*segmentSize && (skipped == 0 || listed == 0) {
					t.Errorf("%d scans pruned segments and %d ran residual filters over a candidate list; both paths must run", skipped, listed)
				}
				if got, want := digest.Sum64(), residualExplainDigests[key]; got != want {
					t.Errorf("Explain counters digest %#x, want %#x", got, want)
				}
			})
		}
	}
}

// TestPackedGroupKeysWithBools groups by dictionary × bool, bool × bool
// and a nullable bool alone, on the dense counting-sort path (many matched
// rows) and on the map path (too few matched rows for a dense table), and
// checks group order and rows against the oracle and the packed key width
// against the summed column widths (bits.Len of the dictionary size, two
// bits a bool). It observes the route groupRows takes over the same matched
// rows instead of recomputing it: the packed route allocates less than the
// byte-key route, and on the dense cases less than the packed map path
// (forced with a key width past denseKeyBits). A lone bool's key space is
// four slots, which any matched row makes dense, so it has no map case.
func TestPackedGroupKeysWithBools(t *testing.T) {
	rows := kernelRows(3*segmentSize+17, true)
	e := NewEngine(kernelRegistry(), rows)
	ctx := context.Background()
	for _, tc := range []struct {
		groupBy []string
		mapPath bool
	}{{[]string{"d", "b"}, true}, {[]string{"b", "c"}, true}, {[]string{"c"}, false}} {
		cols := make([]*column, len(tc.groupBy))
		wantBits := 0
		for i, name := range tc.groupBy {
			cols[i] = e.columnFor(e.ordinals[name])
			if cols[i].dict != nil {
				wantBits += bits.Len(uint(len(cols[i].dict)))
			} else {
				wantBits += 2
			}
		}
		keyAt, keyBits, ok := packedKeyer(cols)
		if !ok || keyBits != wantBits {
			t.Fatalf("group by %v: packedKeyer = %d bits, ok %v; want %d bits", tc.groupBy, keyBits, ok, wantBits)
		}
		cases := [][]Filter{nil}
		if tc.mapPath {
			cases = append(cases, []Filter{{Field: "id", Op: OpLt, Value: int64(1)}})
		}
		for _, filters := range cases {
			a := Aggregate{GroupBy: tc.groupBy, Filters: filters, Aggregates: []AggSpec{
				{Op: AggCount}, {Op: AggMean, Field: "i"}, {Op: AggMin, Field: "t"}}}
			planned, err := e.Aggregate(a)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := e.AggregateOracle(a)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAggregate(t, a, planned, oracle)
			if filters == nil && len(planned.Rows) < 3 {
				t.Fatalf("group by %v formed only %d groups", tc.groupBy, len(planned.Rows))
			}

			pa, err := e.prepareAggregate(a)
			if err != nil {
				t.Fatal(err)
			}
			matched, _, err := e.planMatch(ctx, pa.filters)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun pins GOMAXPROCS to 1, so every count is
			// deterministic.
			allocs := func(group func() ([]*colGroup, error)) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := group(); err != nil {
						t.Fatal(err)
					}
				})
			}
			route := allocs(func() ([]*colGroup, error) { return e.groupRows(ctx, pa, matched) })
			byteKeys := allocs(func() ([]*colGroup, error) {
				return groupRowsBytes(ctx, newCanceler(ctx), matched, cols)
			})
			mapped := allocs(func() ([]*colGroup, error) {
				return groupRowsPacked(ctx, newCanceler(ctx), matched, keyAt, denseKeyBits+1)
			})
			if route >= byteKeys {
				t.Fatalf("group by %v over %d rows: %v allocations, the byte-key route makes %v; want fewer (packed keys)",
					tc.groupBy, len(matched), route, byteKeys)
			}
			if dense := route < mapped; dense != (filters == nil) {
				t.Fatalf("group by %v over %d rows: dense path %v (%v allocations, the packed map path makes %v)",
					tc.groupBy, len(matched), dense, route, mapped)
			}
		}
	}
}

// requireSameIDs is requireSameResult for queries whose only output field
// is the unique id, compared without reflection.
func requireSameIDs(t *testing.T, q Query, planned, oracle *Result) {
	t.Helper()
	same := planned.Meta.TotalMatched == oracle.Meta.TotalMatched && len(planned.Rows) == len(oracle.Rows)
	for i := 0; same && i < len(planned.Rows); i++ {
		same = planned.Rows[i][0].(int64) == oracle.Rows[i][0].(int64)
	}
	if !same {
		t.Fatalf("query %+v:\nplanned %d rows %v\noracle  %d rows %v", q,
			planned.Meta.TotalMatched, planned.Rows, oracle.Meta.TotalMatched, oracle.Rows)
	}
}
