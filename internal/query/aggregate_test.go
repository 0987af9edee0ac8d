package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// requireSameAggregate asserts the planned aggregation is byte-identical to
// the oracle: fields, every group row (order included), and the shared meta.
func requireSameAggregate(t *testing.T, a Aggregate, planned, oracle *Result) {
	t.Helper()
	if !reflect.DeepEqual(planned.Fields, oracle.Fields) {
		t.Fatalf("aggregate %+v:\nfields diverge:\nplanned %+v\noracle  %+v", a, planned.Fields, oracle.Fields)
	}
	if planned.Meta.TotalMatched != oracle.Meta.TotalMatched || planned.Meta.Returned != oracle.Meta.Returned {
		t.Fatalf("aggregate %+v:\nmeta diverges: planned %+v, oracle %+v", a, planned.Meta, oracle.Meta)
	}
	if !reflect.DeepEqual(planned.Rows, oracle.Rows) {
		pj, _ := json.Marshal(planned.Rows)
		oj, _ := json.Marshal(oracle.Rows)
		t.Fatalf("aggregate %+v:\nrows diverge:\nplanned %s\noracle  %s", a, pj, oj)
	}
}

func TestAggregateSemantics(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())

	// Per-market counts and sums over the 5-row fixture: Google Play holds
	// alpha (size 100) and echo (50), Tencent bravo (300) and charlie
	// (null size), Baidu delta (300).
	res, err := e.Aggregate(Aggregate{
		GroupBy: []string{"market"},
		Aggregates: []AggSpec{
			{Op: AggCount},
			{Op: AggCount, Field: "size", As: "sized"},
			{Op: AggSum, Field: "size"},
			{Op: AggMean, Field: "rating"},
			{Op: AggMin, Field: "name"},
			{Op: AggMax, Field: "size"},
			{Op: AggShare},
			{Op: AggDistinct, Field: "size"},
			{Op: AggTopK, Field: "flagged", K: 1},
		},
	})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	wantFields := []string{"market", "count", "sized", "sum(size)", "mean(rating)",
		"min(name)", "max(size)", "share", "distinct(size)", "topk(flagged,1)"}
	if len(res.Fields) != len(wantFields) {
		t.Fatalf("fields = %+v", res.Fields)
	}
	for i, f := range res.Fields {
		if f.Name != wantFields[i] {
			t.Fatalf("field %d = %q, want %q", i, f.Name, wantFields[i])
		}
	}
	want := [][]any{
		{"Google Play", int64(2), int64(2), int64(150), 4.5, "alpha", int64(100), 0.4, int64(2), "false:2"},
		{"Tencent Myapp", int64(2), int64(1), int64(300), 2.5, "bravo", int64(300), 0.4, int64(1), "false:1"},
		{"Baidu Market", int64(1), int64(1), int64(300), nil, "delta", int64(300), 0.2, int64(1), "true:1"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		got, _ := json.Marshal(res.Rows)
		t.Fatalf("rows = %s", got)
	}
	if res.Meta.TotalMatched != 5 || res.Meta.Returned != 3 || res.Meta.Explain == nil {
		t.Fatalf("meta = %+v", res.Meta)
	}
}

func TestAggregateWhereFiltersAndSort(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())

	// One query, two conditional counts per market, ranked by size sum.
	res, err := e.Aggregate(Aggregate{
		GroupBy: []string{"market"},
		Aggregates: []AggSpec{
			{Op: AggCount, As: "apps"},
			{Op: AggCount, Where: []Filter{{Field: "flagged", Op: OpEq, Value: true}}, As: "flagged"},
			{Op: AggSum, Field: "size", As: "bytes"},
		},
		Sort:  []SortKey{{Field: "bytes", Desc: true}, {Field: "market"}},
		Limit: 2,
	})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	want := [][]any{
		{"Baidu Market", int64(1), int64(1), int64(300)},
		{"Tencent Myapp", int64(2), int64(1), int64(300)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		got, _ := json.Marshal(res.Rows)
		t.Fatalf("rows = %s", got)
	}
}

func TestAggregateGlobalGroup(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())

	// No group_by: exactly one global row, even when nothing matches.
	res, err := e.Aggregate(Aggregate{
		Aggregates: []AggSpec{{Op: AggCount}, {Op: AggDistinct, Field: "market"}},
	})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, [][]any{{int64(5), int64(3)}}) {
		got, _ := json.Marshal(res.Rows)
		t.Fatalf("global rows = %s", got)
	}

	res, err = e.Aggregate(Aggregate{
		Filters:    []Filter{{Field: "market", Op: OpEq, Value: "No Such Market"}},
		Aggregates: []AggSpec{{Op: AggCount}, {Op: AggMin, Field: "size"}, {Op: AggShare}},
	})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, [][]any{{int64(0), nil, float64(0)}}) {
		got, _ := json.Marshal(res.Rows)
		t.Fatalf("empty-match global rows = %s", got)
	}
}

func TestAggregateNullGroupKeys(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())

	// charlie has a null size: it must form its own group with a nil key
	// cell, not be dropped.
	res, err := e.Aggregate(Aggregate{
		GroupBy:    []string{"size"},
		Aggregates: []AggSpec{{Op: AggCount}},
		Sort:       []SortKey{{Field: "size"}},
	})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	want := [][]any{
		{int64(50), int64(1)},
		{int64(100), int64(1)},
		{int64(300), int64(2)},
		{nil, int64(1)}, // nulls sort last
	}
	if !reflect.DeepEqual(res.Rows, want) {
		got, _ := json.Marshal(res.Rows)
		t.Fatalf("rows = %s", got)
	}
}

func TestAggregateValidation(t *testing.T) {
	e := NewEngine(testIndexedRegistry(), testRows())
	cases := []struct {
		name string
		a    Aggregate
	}{
		{"no-aggregates", Aggregate{GroupBy: []string{"market"}}},
		{"unknown-group-field", Aggregate{GroupBy: []string{"nope"}, Aggregates: []AggSpec{{Op: AggCount}}}},
		{"duplicate-group-field", Aggregate{GroupBy: []string{"market", "market"}, Aggregates: []AggSpec{{Op: AggCount}}}},
		{"unknown-op", Aggregate{Aggregates: []AggSpec{{Op: "median", Field: "size"}}}},
		{"sum-needs-field", Aggregate{Aggregates: []AggSpec{{Op: AggSum}}}},
		{"sum-on-string", Aggregate{Aggregates: []AggSpec{{Op: AggSum, Field: "name"}}}},
		{"share-takes-no-field", Aggregate{Aggregates: []AggSpec{{Op: AggShare, Field: "size"}}}},
		{"unknown-agg-field", Aggregate{Aggregates: []AggSpec{{Op: AggMin, Field: "nope"}}}},
		{"duplicate-output", Aggregate{Aggregates: []AggSpec{{Op: AggCount}, {Op: AggCount}}}},
		{"collides-with-group", Aggregate{GroupBy: []string{"market"}, Aggregates: []AggSpec{{Op: AggCount, As: "market"}}}},
		{"bad-where", Aggregate{Aggregates: []AggSpec{{Op: AggCount, Where: []Filter{{Field: "size", Op: OpContains, Value: "x"}}}}}},
		{"bad-filter", Aggregate{Aggregates: []AggSpec{{Op: AggCount}}, Filters: []Filter{{Field: "nope", Op: OpEq, Value: 1}}}},
		{"bad-sort", Aggregate{Aggregates: []AggSpec{{Op: AggCount}}, Sort: []SortKey{{Field: "size"}}}},
		{"negative-limit", Aggregate{Aggregates: []AggSpec{{Op: AggCount}}, Limit: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Aggregate(tc.a); err == nil {
				t.Errorf("planned path accepted %+v", tc.a)
			}
			if _, err := e.AggregateOracle(tc.a); err == nil {
				t.Errorf("oracle path accepted %+v", tc.a)
			}
		})
	}
}

// randomAggregate builds a valid-shaped (occasionally invalid, which both
// paths must reject identically) aggregation request over the test registry.
func randomAggregate(rng *rand.Rand) Aggregate {
	fieldNames := []string{"name", "market", "size", "rating", "flagged", "date"}
	numeric := []string{"size", "rating", "flagged"}
	a := Aggregate{}
	for _, f := range fieldNames {
		if rng.Intn(4) == 0 {
			a.GroupBy = append(a.GroupBy, f)
		}
	}
	used := map[string]bool{}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		ops := []AggOp{AggCount, AggSum, AggMean, AggMin, AggMax, AggShare, AggDistinct, AggTopK}
		spec := AggSpec{Op: ops[rng.Intn(len(ops))]}
		switch spec.Op {
		case AggCount:
			if rng.Intn(2) == 0 {
				spec.Field = fieldNames[rng.Intn(len(fieldNames))]
			}
		case AggShare:
			// no field
		case AggSum, AggMean:
			spec.Field = numeric[rng.Intn(len(numeric))]
		default:
			spec.Field = fieldNames[rng.Intn(len(fieldNames))]
		}
		if spec.Op == AggTopK {
			spec.K = rng.Intn(4) // 0 exercises the default
		}
		if rng.Intn(3) == 0 {
			spec.Where = randomQuery(rng).Filters
		}
		spec.As = fmt.Sprintf("a%d_%s", i, spec.Op)
		if used[spec.As] {
			continue
		}
		used[spec.As] = true
		a.Aggregates = append(a.Aggregates, spec)
	}
	if len(a.Aggregates) == 0 {
		a.Aggregates = []AggSpec{{Op: AggCount}}
	}
	a.Filters = randomQuery(rng).Filters
	if rng.Intn(2) == 0 {
		// Sort over the output columns (group fields and aggregate names).
		cols := append([]string{}, a.GroupBy...)
		for _, spec := range a.Aggregates {
			cols = append(cols, spec.As)
		}
		for i := rng.Intn(3); i > 0 && len(cols) > 0; i-- {
			a.Sort = append(a.Sort, SortKey{Field: cols[rng.Intn(len(cols))], Desc: rng.Intn(2) == 0})
		}
	}
	if rng.Intn(3) == 0 {
		a.Limit = 1 + rng.Intn(10)
	}
	return a
}

// TestAggregateMatchesOracle is the randomized equivalence suite: seeds ×
// group-by fields × aggregate sets over null-heavy data, planned vs oracle.
func TestAggregateMatchesOracle(t *testing.T) {
	const requestsPerSeed = 120
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(400)
			e := NewEngine(testIndexedRegistry(), randomRows(rng, n))
			for i := 0; i < requestsPerSeed; i++ {
				a := randomAggregate(rng)
				planned, err1 := e.Aggregate(a)
				oracle, err2 := e.AggregateOracle(a)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("request %d (%+v): planned err %v, oracle err %v", i, a, err1, err2)
				}
				if err1 != nil {
					continue
				}
				requireSameAggregate(t, a, planned, oracle)
				if planned.Meta.Explain == nil {
					t.Fatalf("request %d: planned aggregation has no explain block", i)
				}
			}
		})
	}
}

// TestAggregateRangeWindowsMatchOracle filters random aggregations by
// randomWindowQuery's 2–3 bounds on one sorted field (merged windows,
// inverted ones, == plus a range, dates under mixed offsets), on the indexed
// engine and on an unindexed one where every bound is a residual predicate.
func TestAggregateRangeWindowsMatchOracle(t *testing.T) {
	const requestsPerSeed = 120
	for seed := int64(71); seed <= 74; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			rows := windowRows(rng, 50+rng.Intn(400))
			engines := []*Engine[row]{NewEngine(testIndexedRegistry(), rows), NewEngine(testRegistry(), rows)}
			for i := 0; i < requestsPerSeed; i++ {
				a := randomAggregate(rng)
				a.Filters = randomWindowQuery(rng).Filters
				for _, e := range engines {
					planned, err1 := e.Aggregate(a)
					oracle, err2 := e.AggregateOracle(a)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("request %d (%+v): planned err %v, oracle err %v", i, a, err1, err2)
					}
					if err1 != nil {
						continue
					}
					requireSameAggregate(t, a, planned, oracle)
				}
			}
		})
	}
}

// TestAggregateMatchesOracleParallel runs the equivalence over a dataset
// large enough that matching, grouping and the per-group fan-out all cross
// the parallel threshold.
func TestAggregateMatchesOracleParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := NewEngine(testIndexedRegistry(), randomRows(rng, parallelThreshold*2+61))
	for i := 0; i < 30; i++ {
		a := randomAggregate(rng)
		planned, err1 := e.Aggregate(a)
		oracle, err2 := e.AggregateOracle(a)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("request %d (%+v): planned err %v, oracle err %v", i, a, err1, err2)
		}
		if err1 != nil {
			continue
		}
		requireSameAggregate(t, a, planned, oracle)
	}
}

// TestConcurrentColdAggregate hammers a freshly built engine with mixed
// aggregations from many goroutines: under -race this proves the lazy column
// and index builds stay safe when the first touches come from the
// aggregation path, and every result must equal the oracle's.
func TestConcurrentColdAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows := randomRows(rng, parallelThreshold+200)
	warm := NewEngine(testIndexedRegistry(), rows)
	requests := make([]Aggregate, 0, 16)
	oracles := make([]*Result, 0, 16)
	for len(requests) < 16 {
		a := randomAggregate(rng)
		res, err := warm.AggregateOracle(a)
		if err != nil {
			continue
		}
		requests = append(requests, a)
		oracles = append(oracles, res)
	}

	cold := NewEngine(testIndexedRegistry(), rows)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(requests); i++ {
				ri := (w + i) % len(requests)
				res, err := cold.Aggregate(requests[ri])
				if err != nil {
					t.Errorf("cold aggregate %d: %v", ri, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, oracles[ri].Rows) ||
					res.Meta.TotalMatched != oracles[ri].Meta.TotalMatched {
					t.Errorf("cold aggregate %d diverged from oracle", ri)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestParseAggregate(t *testing.T) {
	a, err := ParseAggregate(bytes.NewReader([]byte(`{
		"group_by": ["market"],
		"aggregates": [{"op":"count"},{"op":"mean","field":"rating","as":"avg"},
		               {"op":"count","where":[{"field":"flagged","op":"==","value":true}],"as":"bad"}],
		"filters": [{"field":"size","op":">=","value":100}],
		"sort": [{"field":"count","desc":true}],
		"limit": 3
	}`)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(a.GroupBy) != 1 || len(a.Aggregates) != 3 || len(a.Filters) != 1 || a.Limit != 3 {
		t.Fatalf("parsed = %+v", a)
	}
	if _, err := ParseAggregate(bytes.NewReader([]byte(`{"aggregate": []}`))); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseAggregate(bytes.NewReader(nil)); err != ErrEmptyQuery {
		t.Errorf("empty body error = %v", err)
	}
	if _, err := ParseAggregate(bytes.NewReader([]byte(`{"aggregates":[],"limit":-2}`))); err == nil {
		t.Error("negative limit accepted")
	}
}

// FuzzAggregate feeds arbitrary JSON aggregation documents to both
// executors: they must agree on accept/reject, and on every accepted request
// the planned groups must be byte-identical to the oracle's.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte(`{"group_by":["market"],"aggregates":[{"op":"count"},{"op":"share"}]}`))
	f.Add([]byte(`{"group_by":["market","flagged"],"aggregates":[{"op":"sum","field":"size"},{"op":"mean","field":"rating"}],"sort":[{"field":"sum(size)","desc":true}],"limit":3}`))
	f.Add([]byte(`{"aggregates":[{"op":"distinct","field":"market"},{"op":"topk","field":"name","k":2}]}`))
	f.Add([]byte(`{"group_by":["size"],"aggregates":[{"op":"count","where":[{"field":"flagged","op":"==","value":true}],"as":"bad"}],"filters":[{"field":"rating","op":"is_null","value":false}]}`))
	f.Add([]byte(`{"group_by":["date"],"aggregates":[{"op":"min","field":"name"},{"op":"max","field":"rating"}]}`))
	f.Add([]byte(`{"group_by":["market"],"aggregates":[{"op":"count"}],"filters":[{"field":"date","op":">=","value":"2018-05-02"},{"field":"date","op":"<","value":"2018-05-05T08:00:00+08:00"}]}`))
	f.Add([]byte(`{"group_by":["flagged"],"aggregates":[{"op":"mean","field":"size"}],"filters":[{"field":"rating","op":">","value":1.5},{"field":"rating","op":"<=","value":3},{"field":"rating","op":"==","value":2.5}]}`))
	f.Add([]byte(`{"group_by":["flagged"],"aggregates":[{"op":"count","where":[{"field":"rating","op":">=","value":2}],"as":"hi"},{"op":"max","field":"rating"},{"op":"topk","field":"rating","k":3}]}`))

	rng := rand.New(rand.NewSource(5))
	engines := []*Engine[row]{
		NewEngine(testIndexedRegistry(), randomRows(rng, 64)),
		NewEngine(testIndexedRegistry(), nanRows(rng, blockSize+segmentSize+37)),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseAggregate(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range engines {
			planned, err1 := e.Aggregate(a)
			oracle, err2 := e.AggregateOracle(a)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("paths disagree on validity: planned err %v, oracle err %v (request %+v)", err1, err2, a)
			}
			if err1 != nil {
				return
			}
			if !sameRows(planned.Rows, oracle.Rows) ||
				!reflect.DeepEqual(planned.Fields, oracle.Fields) ||
				planned.Meta.TotalMatched != oracle.Meta.TotalMatched ||
				planned.Meta.Returned != oracle.Meta.Returned {
				t.Fatalf("planned result diverges from oracle on %d rows (request %+v):\nplanned %v\noracle  %v",
					e.Len(), a, planned.Rows, oracle.Rows)
			}
		}
	})
}
