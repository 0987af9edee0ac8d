package query

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// TestPlannedPathAtWorkerCounts runs every fan-out of the planned path at
// GOMAXPROCS 1, 2, 3 and 5 over 3·parallelThreshold+7 rows, a count that no
// chunking divides evenly: zone-pruned full scans, candidate-plus-residual
// scans (the g == 0 window holds 4,099 rows, also past the threshold),
// aggregates whose group fill fans out, and the dense, packed-hash and
// byte-key grouping routes, forced over the same matched rows as
// TestPackedGroupKeysWithBools forces them. Every answer must equal the
// oracle's and the GOMAXPROCS 1 answer, Explain counters included; the
// forced routes must agree with each other and with the oracle's group
// order and sizes. `go test` does not key its cache on the GOMAXPROCS
// environment variable, so a run that varies it needs -count=1.
func TestPlannedPathAtWorkerCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	e := NewEngine(kernelRegistry(), kernelRows(3*parallelThreshold+7, true))
	ctx := context.Background()
	id := []string{"id"}
	scans := []Query{
		{Fields: id, Filters: []Filter{{Field: "i", Op: OpGe, Value: int64(700)}}},
		{Fields: id, Filters: []Filter{{Field: "s", Op: OpContains, Value: "3"}}},
		{Fields: id, Filters: []Filter{{Field: "s", Op: OpContains, Value: "1"}}, Limit: 9},
		{Fields: id, Filters: []Filter{{Field: "i", Op: OpLt, Value: int64(1200)}},
			Sort: []SortKey{{Field: "t", Desc: true}}, Limit: 25},
		{Fields: id, Filters: []Filter{{Field: "g", Op: OpEq, Value: int64(0)}, {Field: "s", Op: OpContains, Value: "2"}}},
		{Fields: id, Filters: []Filter{{Field: "g", Op: OpEq, Value: int64(0)}, {Field: "i", Op: OpLt, Value: int64(1300)}}},
	}
	aggs := []Aggregate{
		{GroupBy: []string{"d", "b"}, Aggregates: []AggSpec{{Op: AggCount}, {Op: AggMean, Field: "i"}, {Op: AggMin, Field: "t"}}},
		{GroupBy: []string{"s"}, Aggregates: []AggSpec{{Op: AggCount}, {Op: AggMax, Field: "t"}}},
		{GroupBy: []string{"i"}, Aggregates: []AggSpec{{Op: AggCount}, {Op: AggSum, Field: "g"}},
			Filters: []Filter{{Field: "t", Op: OpIsNull, Value: false}}},
		{GroupBy: []string{"c"}, Aggregates: []AggSpec{{Op: AggShare}},
			Filters: []Filter{{Field: "g", Op: OpEq, Value: int64(0)}, {Field: "s", Op: OpContains, Value: "1"}}},
	}
	routeGroupBy := []string{"d", "b", "c"}

	type answer struct {
		rows [][]any
		meta Meta // QueryTimeMicros zeroed
	}
	keep := func(res *Result) answer {
		meta := res.Meta
		meta.QueryTimeMicros = 0
		return answer{res.Rows, meta}
	}
	var base []answer
	var baseGroups []*colGroup
	for _, procs := range []int{1, 2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		var got []answer
		for _, q := range scans {
			res, err := e.Scan(q)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, scan %+v: %v", procs, q, err)
			}
			oracle, err := e.ScanOracle(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameIDs(t, q, res, oracle)
			got = append(got, keep(res))
		}
		for _, a := range aggs {
			res, err := e.Aggregate(a)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, aggregate %+v: %v", procs, a, err)
			}
			oracle, err := e.AggregateOracle(a)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAggregate(t, a, res, oracle)
			got = append(got, keep(res))
		}

		a := Aggregate{GroupBy: routeGroupBy, Aggregates: []AggSpec{{Op: AggCount}}}
		pa, err := e.prepareAggregate(a)
		if err != nil {
			t.Fatal(err)
		}
		matched, _, err := e.planMatch(ctx, pa.filters)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]*column, len(routeGroupBy))
		for i, name := range routeGroupBy {
			cols[i] = e.columnFor(e.ordinals[name])
		}
		keyAt, _, _ := packedKeyer(cols)
		dense, err1 := e.groupRows(ctx, pa, matched)
		hashed, err2 := groupRowsPacked(ctx, newCanceler(ctx), matched, keyAt, denseKeyBits+1)
		byteKeys, err3 := groupRowsBytes(ctx, newCanceler(ctx), matched, cols)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("GOMAXPROCS %d: grouping errors %v, %v, %v", procs, err1, err2, err3)
		}
		if !reflect.DeepEqual(hashed, dense) || !reflect.DeepEqual(byteKeys, dense) {
			t.Fatalf("GOMAXPROCS %d: the packed-hash or byte-key route groups differently from the dense route", procs)
		}
		oracle, err := e.AggregateOracle(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(oracle.Rows) != len(dense) {
			t.Fatalf("GOMAXPROCS %d: %d groups, the oracle forms %d", procs, len(dense), len(oracle.Rows))
		}
		for gi, g := range dense {
			if n := oracle.Rows[gi][len(routeGroupBy)].(int64); int(n) != len(g.rows) {
				t.Fatalf("GOMAXPROCS %d: group %d holds %d rows, the oracle counts %d", procs, gi, len(g.rows), n)
			}
		}

		if procs == 1 {
			base, baseGroups = got, dense
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], base[i]) {
				t.Fatalf("GOMAXPROCS %d, request %d: rows or meta differ from GOMAXPROCS 1\n%+v %+v\n%+v %+v",
					procs, i, got[i].meta, got[i].meta.Explain, base[i].meta, base[i].meta.Explain)
			}
		}
		if !reflect.DeepEqual(dense, baseGroups) {
			t.Fatalf("GOMAXPROCS %d: groups differ from GOMAXPROCS 1", procs)
		}
	}
}
