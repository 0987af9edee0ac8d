package report

import (
	"strings"
	"testing"

	"marketscope/internal/query"
)

func TestScanTable(t *testing.T) {
	res := &query.Result{
		Fields: []query.FieldInfo{
			{Name: "package", Category: "metadata", Kind: query.KindString},
			{Name: "downloads", Category: "metadata", Kind: query.KindInt, Nullable: true},
			{Name: "rating", Category: "metadata", Kind: query.KindFloat},
			{Name: "flagged", Category: "enrichment", Kind: query.KindBool},
		},
		Rows: [][]any{
			{"com.example.a", int64(120000), 4.5, true},
			{"com.example.b", nil, float64(3), false},
		},
		Meta: query.Meta{Scanned: 500, TotalMatched: 2, Returned: 2, QueryTimeMicros: 42},
	}
	out := ScanTable("scan", res)
	for _, want := range []string{"package", "com.example.a", "120000", "4.5", "yes",
		"com.example.b", "2 of 500 listings matched"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The null downloads cell renders as "-".
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "com.example.b") {
			line = l
		}
	}
	if !strings.Contains(line, "-") {
		t.Errorf("null cell not rendered as '-': %q", line)
	}
	// A float64-typed integer (JSON-decoded) renders without a trailing .0.
	if strings.Contains(out, "3.0") {
		t.Errorf("JSON-decoded int rendered with fraction:\n%s", out)
	}
}

func TestScanFields(t *testing.T) {
	out := ScanFields([]query.FieldInfo{
		{Name: "market", Category: "metadata", Kind: query.KindString, Indexable: true, Doc: "hosting market"},
		{Name: "av_positives", Category: "enrichment", Kind: query.KindInt, Nullable: true, Doc: "AV-rank"},
	})
	for _, want := range []string{"market", "metadata", "av_positives", "enrichment", "AV-rank", "Idx?", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("fields listing missing %q:\n%s", want, out)
		}
	}
}

// TestScanTableWithExplain checks the planner path's meta line counts
// candidate rows (the old Scanned meaning) and ScanExplain renders the plan.
func TestScanTableWithExplain(t *testing.T) {
	res := &query.Result{
		Fields: []query.FieldInfo{{Name: "package", Category: "metadata", Kind: query.KindString}},
		Rows:   [][]any{{"com.example.a"}},
		Meta: query.Meta{Scanned: 12, TotalMatched: 1, Returned: 1, QueryTimeMicros: 3,
			Explain: &query.Explain{IndexUsed: "sorted(market)", DatasetRows: 500, Candidates: 12, ResidualScanned: 12}},
	}
	out := ScanTable("scan", res)
	// The denominator stays the dataset size even though the index pruned
	// the scan to 12 candidate rows.
	if !strings.Contains(out, "1 of 500 listings matched") {
		t.Errorf("explain-backed meta line wrong:\n%s", out)
	}
	ex := ScanExplain(res.Meta)
	for _, want := range []string{"index=sorted(market)", "rows=500", "candidates=12", "residual_scanned=12", "evaluated=12"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain rendering missing %q: %q", want, ex)
		}
	}
	if got := ScanExplain(query.Meta{}); !strings.Contains(got, "oracle") {
		t.Errorf("explain of oracle meta = %q", got)
	}
}

func TestAggregateTable(t *testing.T) {
	res := &query.Result{
		Fields: []query.FieldInfo{
			{Name: "market", Category: "metadata", Kind: query.KindString},
			{Name: "count", Category: query.FieldCategoryAggregate, Kind: query.KindInt},
			{Name: "share", Category: query.FieldCategoryAggregate, Kind: query.KindFloat},
			{Name: "min(rating)", Category: query.FieldCategoryAggregate, Kind: query.KindFloat},
		},
		Rows: [][]any{
			{"Google Play", int64(120), 0.25, 1.5},
			{"Tencent Myapp", int64(80), 0.75, nil},
		},
		Meta: query.Meta{Scanned: 0, TotalMatched: 200, Returned: 2, QueryTimeMicros: 9,
			Explain: &query.Explain{IndexUsed: "", DatasetRows: 480, Candidates: 480}},
	}
	out := AggregateTable("aggregate", res)
	for _, want := range []string{"market", "count", "share", "min(rating)",
		"Google Play", "120", "0.25", "2 groups from 200 of 480 listings"} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregate table missing %q:\n%s", want, out)
		}
	}
	// The null min cell renders as "-".
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "Tencent Myapp") && !strings.Contains(l, "-") {
			t.Errorf("null aggregate cell not rendered as '-': %q", l)
		}
	}
}
