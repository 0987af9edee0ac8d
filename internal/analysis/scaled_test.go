package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// TestScaledDatasetShape checks the streamed corpus materializes with the
// row count asked for, market profiles attached in canonical order, and the
// metadata-only contract holding on every row (no APK, parse error set,
// apk-category fields null).
func TestScaledDatasetShape(t *testing.T) {
	d, err := NewScaledDataset(synth.ScaleConfig{Seed: 3, Rows: 2000})
	if err != nil {
		t.Fatalf("NewScaledDataset: %v", err)
	}
	if len(d.Apps) != 2000 {
		t.Fatalf("got %d apps, want 2000", len(d.Apps))
	}
	for i, app := range d.Apps {
		if app.ParseError == nil || app.Parsed != nil {
			t.Fatalf("app %d: scaled rows must be metadata-only (err=%v parsed=%v)",
				i, app.ParseError, app.Parsed)
		}
	}
	if len(d.Markets) == 0 {
		t.Fatal("no market profiles attached")
	}
	seen := map[string]bool{}
	for _, p := range d.Markets {
		if seen[p.Name] {
			t.Fatalf("market %q attached twice", p.Name)
		}
		seen[p.Name] = true
	}
	for name := range d.byMarket {
		if !seen[name] {
			t.Errorf("market %q present in rows but has no profile", name)
		}
	}
	if d.CrawlTime.IsZero() {
		t.Error("CrawlTime not set")
	}

	// The apk-category fields must scan as null on a metadata-only corpus.
	res, err := d.QuerySource().Scan(query.Query{
		Fields:  []string{"package", "apk_size", "method_count"},
		Filters: []query.Filter{{Field: "method_count", Op: query.OpIsNull, Value: true}},
		Limit:   5,
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if res.Meta.TotalMatched != 2000 {
		t.Errorf("method_count should be null on all 2000 rows, matched %d", res.Meta.TotalMatched)
	}
}

// TestScaledDatasetDeterministicAndPrefix pins the generator's two
// reproducibility contracts: the same config yields an identical dataset,
// and a shorter corpus is a row-for-row prefix of a longer one with the same
// seed — which is what makes the 400 → 100k → 1M scaling curve measure one
// growing corpus rather than three unrelated ones.
func TestScaledDatasetDeterministicAndPrefix(t *testing.T) {
	a, err := NewScaledDataset(synth.ScaleConfig{Seed: 11, Rows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScaledDataset(synth.ScaleConfig{Seed: 11, Rows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("row counts diverge: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		if !reflect.DeepEqual(a.Apps[i].Meta, b.Apps[i].Meta) {
			t.Fatalf("row %d diverges across generates:\n%+v\n%+v", i, a.Apps[i].Meta, b.Apps[i].Meta)
		}
	}

	// Prefix property: NumApps/NumDevelopers defaults depend on Rows, so pin
	// them — the contract is per-row purity given the same population sizes.
	big, err := NewScaledDataset(synth.ScaleConfig{Seed: 11, Rows: 1500, NumApps: 500, NumDevelopers: 63})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewScaledDataset(synth.ScaleConfig{Seed: 11, Rows: 400, NumApps: 500, NumDevelopers: 63})
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Apps {
		if !reflect.DeepEqual(small.Apps[i].Meta, big.Apps[i].Meta) {
			t.Fatalf("row %d of the 400-row corpus differs from the 1500-row prefix", i)
		}
	}
}

// TestScaledDatasetQueryEquivalence runs dictionary-, bitmap- and zone-map-
// shaped queries plus a grouped aggregate over a scaled corpus through the
// production engine and the oracle — the scaled rows must not open any
// daylight between the two — and checks that the dictionary shapes plan the
// production registry's bitmap posting lists.
func TestScaledDatasetQueryEquivalence(t *testing.T) {
	d, err := NewScaledDataset(synth.ScaleConfig{Seed: 5, Rows: 3000})
	if err != nil {
		t.Fatal(err)
	}
	src := d.QuerySource()
	oracle := src.(query.OracleSource)

	for _, tc := range []struct {
		q     query.Query
		index string // the plan Explain must name; "" for none
	}{
		{query.Query{Fields: []string{"package", "market"},
			Filters: []query.Filter{{Field: "market", Op: query.OpEq, Value: "Tencent Myapp"}},
			Sort:    []query.SortKey{{Field: "package"}}, Limit: 40}, "bitmap(market)"},
		{query.Query{Fields: []string{"package", "market_category"},
			Filters: []query.Filter{{Field: "market_category", Op: query.OpIn,
				Value: []any{"Unclassified", "102229", "Online Game"}}},
			Sort: []query.SortKey{{Field: "package"}}, Limit: 40}, "bitmap(market_category)"},
		{query.Query{Fields: []string{"package", "release_date"},
			Filters: []query.Filter{{Field: "release_date", Op: query.OpLt, Value: "2016-02-01T00:00:00Z"}},
			Sort:    []query.SortKey{{Field: "release_date"}}, Limit: 40}, ""},
	} {
		q := tc.q
		planned, err := src.Scan(q)
		if err != nil {
			t.Fatalf("planned scan: %v", err)
		}
		want, err := oracle.ScanOracle(q)
		if err != nil {
			t.Fatalf("oracle scan: %v", err)
		}
		pj, _ := json.Marshal(planned.Rows)
		wj, _ := json.Marshal(want.Rows)
		if !bytes.Equal(pj, wj) {
			t.Fatalf("scan diverges on scaled corpus (%+v):\nplanned %s\noracle  %s", q.Filters, pj, wj)
		}
		if planned.Meta.TotalMatched == 0 {
			t.Fatalf("query %+v matched nothing — not probative", q.Filters)
		}
		if tc.index != "" {
			if ex := planned.Meta.Explain; ex == nil || ex.IndexUsed != tc.index {
				t.Fatalf("query %+v planned %+v, want index %s", q.Filters, ex, tc.index)
			}
		}
	}

	agg := query.Aggregate{
		GroupBy: []string{"market", "market_category"},
		Aggregates: []query.AggSpec{
			{Op: query.AggCount, As: "n"},
			{Op: query.AggMean, Field: "rating", As: "mean_rating"},
		},
		Sort:  []query.SortKey{{Field: "n", Desc: true}},
		Limit: 20,
	}
	planned, err := d.Aggregate(agg)
	if err != nil {
		t.Fatalf("planned aggregate: %v", err)
	}
	want, err := src.(query.AggregateOracleSource).AggregateOracle(agg)
	if err != nil {
		t.Fatalf("oracle aggregate: %v", err)
	}
	pj, _ := json.Marshal(planned.Rows)
	wj, _ := json.Marshal(want.Rows)
	if !bytes.Equal(pj, wj) {
		t.Fatalf("aggregate diverges on scaled corpus:\nplanned %s\noracle  %s", pj, wj)
	}
}
