package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkResidualScan times the residual stage alone — matchColumns over
// a full scan — for one filter per kernel kind at 100k rows and two
// selectivities, and reports ns per scanned row. Values are drawn uniformly
// at random, so zone maps prune nothing and every row reaches the kernel.
// It runs at the production segment size, not the test suite's.
func BenchmarkResidualScan(b *testing.B) {
	const n = 100_000
	defer func(saved int) { segmentSize = saved }(segmentSize)
	segmentSize = 4096

	rng := rand.New(rand.NewSource(1))
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{
			name:      fmt.Sprintf("app-%05d", rng.Intn(n)),
			market:    fmt.Sprintf("m%03d", rng.Intn(100)),
			size:      int64(rng.Intn(1000)),
			hasSize:   true,
			rating:    5 * rng.Float64(),
			hasRating: true,
			flagged:   rng.Intn(2) == 0,
			date:      base.Add(time.Duration(rng.Int63n(int64(1000 * time.Hour)))),
		}
	}
	reg := testRegistry()
	if err := reg.MarkDictionary("market"); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(reg, rows)

	var evenMarkets []any
	for m := 0; m < 100; m += 2 {
		evenMarkets = append(evenMarkets, fmt.Sprintf("m%03d", m))
	}
	at := func(h int) string { return base.Add(time.Duration(h) * time.Hour).Format(time.RFC3339) }
	cases := []struct {
		kind   string
		sparse Filter // about 1% of rows pass
		half   Filter // about 50% of rows pass
	}{
		{"int", Filter{Field: "size", Op: OpLt, Value: 10}, Filter{Field: "size", Op: OpLt, Value: 500}},
		{"float", Filter{Field: "rating", Op: OpGe, Value: 4.95}, Filter{Field: "rating", Op: OpGe, Value: 2.5}},
		{"string", Filter{Field: "name", Op: OpLt, Value: "app-01000"}, Filter{Field: "name", Op: OpLt, Value: "app-50000"}},
		{"contains", Filter{Field: "name", Op: OpContains, Value: "-00"}, Filter{Field: "name", Op: OpContains, Value: "5"}},
		{"dict", Filter{Field: "market", Op: OpLt, Value: "m001"}, Filter{Field: "market", Op: OpLt, Value: "m050"}},
		{"dict-in", Filter{Field: "market", Op: OpIn, Value: []any{"m007"}}, Filter{Field: "market", Op: OpIn, Value: evenMarkets}},
		{"bool", Filter{Field: "flagged", Op: OpEq, Value: true}, Filter{Field: "flagged", Op: OpEq, Value: true}},
		{"time", Filter{Field: "date", Op: OpLt, Value: at(10)}, Filter{Field: "date", Op: OpLt, Value: at(500)}},
	}
	for _, c := range cases {
		for _, sel := range []struct {
			name string
			f    Filter
		}{{"1pct", c.sparse}, {"50pct", c.half}} {
			if c.kind == "bool" && sel.name == "1pct" {
				continue // a bool splits the rows in two; there is no sparse form
			}
			cf, err := compileFilter(e.reg, sel.f)
			if err != nil {
				b.Fatal(err)
			}
			filters := []compiledFilter[row]{cf}
			b.Run(c.kind+"/"+sel.name, func(b *testing.B) {
				matched := 0
				for i := 0; i < b.N; i++ {
					out, err := e.matchColumns(context.Background(), filters, nil, nil)
					if err != nil {
						b.Fatal(err)
					}
					matched = len(out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				b.ReportMetric(float64(matched)/n, "selectivity")
			})
		}
	}
}
