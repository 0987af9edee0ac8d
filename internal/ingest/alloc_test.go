package ingest_test

import (
	"runtime"
	"testing"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/ingest"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// TestDeltaAllocationIsDeltaSized is an allocation gate on the ingest path:
// on the 100k-row scaled corpus, with every column and three sorted indexes
// built, a 200-listing delta must allocate at most 8 MiB. Each epoch writes
// its rows into the previous epoch's spare capacity, so what remains per
// delta is the delta itself plus the O(corpus) leftovers of an append (null
// bitmaps, sorted-index merges). An append that copied every column and the
// listing slice allocated about 32 MiB a delta here. Allocation, unlike
// time, does not move with a shared machine's load. Not parallel: TotalAlloc
// counts every goroutine's allocations.
func TestDeltaAllocationIsDeltaSized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state beside every allocation")
	}
	const deltaRows, deltas = 200, 20
	const maxPerDelta = 8 << 20
	// First occurrences only, so every delta adds all of its listings.
	seen := map[appmeta.Key]bool{}
	var listings []ingest.Listing
	if err := synth.StreamListings(synth.ScaleConfig{Seed: 1, Rows: 100_000}, func(_ int, rec appmeta.Record) error {
		if !seen[rec.Key()] {
			seen[rec.Key()] = true
			listings = append(listings, ingest.Listing{Record: rec})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	nBase := len(listings) - (deltas+1)*deltaRows
	ing := ingest.New(ingest.Options{Enrich: analysis.DefaultEnrichOptions()})
	apply := func(seq uint64, batch []ingest.Listing) {
		t.Helper()
		res, err := ing.Apply(ingest.Delta{Seq: seq, Listings: batch})
		if err != nil || res.Added != len(batch) {
			t.Fatalf("delta %d: %+v (err %v)", seq, res, err)
		}
		if seq > 0 && (!res.Sealed || res.Redetected != 0) {
			t.Fatalf("delta %d took the rebuild path: %+v", seq, res)
		}
	}
	apply(0, listings[:nBase])
	if _, err := ing.Dataset().ExportQueryColumns(); err != nil { // builds every column
		t.Fatal(err)
	}
	for _, f := range []query.Filter{
		{Field: "release_date", Op: query.OpGe, Value: "2017-10-01T00:00:00Z"},
		{Field: "downloads", Op: query.OpGe, Value: float64(1_000_000)},
		{Field: "rating", Op: query.OpGt, Value: 4.5},
	} {
		res, err := ing.Dataset().QuerySource().Scan(query.Query{Fields: []string{"package"}, Filters: []query.Filter{f}, Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := "sorted(" + f.Field + ")"; res.Meta.Explain.IndexUsed != want {
			t.Fatalf("a range filter on %s planned %q, want %s", f.Field, res.Meta.Explain.IndexUsed, want)
		}
	}
	// The warm-up delta grows every plane out of its exact-length cold build;
	// the deltas after it write into the room that growth left.
	off := nBase
	apply(1, listings[off:off+deltaRows])
	off += deltaRows

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := uint64(2); seq < 2+deltas; seq++ {
		apply(seq, listings[off:off+deltaRows])
		off += deltaRows
	}
	runtime.ReadMemStats(&after)
	perDelta := (after.TotalAlloc - before.TotalAlloc) / deltas
	t.Logf("%d listings, %d deltas of %d: %.2f MiB allocated a delta", off, deltas, deltaRows, float64(perDelta)/(1<<20))
	if perDelta > maxPerDelta {
		t.Fatalf("a %d-listing delta allocated %.2f MiB, want at most %d MiB", deltaRows, float64(perDelta)/(1<<20), maxPerDelta>>20)
	}
}
