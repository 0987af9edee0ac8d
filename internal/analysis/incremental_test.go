package analysis

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

// epochCorpus returns the fixture's first-crawl records and an apkOf that
// resolves archives only for the first nBase of them. The records after
// those are metadata-only deltas: they add no feature observations, so
// re-detection changes nothing and every append from a built engine takes
// the delta-sized path.
func epochCorpus(t *testing.T) (records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool), nBase int) {
	t.Helper()
	f := testFixture(t)
	records = f.first.Records()
	nBase = len(records) - 150
	if nBase < 100 {
		t.Fatalf("fixture too small: %d records", len(records))
	}
	inBase := make(map[appmeta.Key]bool, nBase)
	for _, rec := range records[:nBase] {
		inBase[rec.Key()] = true
	}
	return records, func(k appmeta.Key) ([]byte, bool) {
		if !inBase[k] {
			return nil, false
		}
		return f.first.APK(k)
	}, nBase
}

// requireSameEpoch asserts that d holds exactly the listings of records, in
// order and per market, with the same APK rows, and that its engine answers
// a full dump exactly as a cold build and enrichment over records does.
func requireSameEpoch(t *testing.T, name string, d *Dataset, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) {
	t.Helper()
	cold, err := BuildDatasetFromRecords(d.CrawlTime, records, apkOf, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold.Enrich(DefaultEnrichOptions())
	keys := func(apps []*App) []appmeta.Key {
		out := make([]appmeta.Key, len(apps))
		for i, app := range apps {
			out[i] = app.Meta.Key()
		}
		return out
	}
	if !reflect.DeepEqual(keys(d.Apps), keys(cold.Apps)) {
		t.Fatalf("%s: listings diverge from the cold build (%d vs %d)", name, len(d.Apps), len(cold.Apps))
	}
	if !slices.Equal(d.apkRows, cold.apkRows) {
		t.Fatalf("%s: %d APK rows diverge from the cold build's %d", name, len(d.apkRows), len(cold.apkRows))
	}
	if !reflect.DeepEqual(d.MarketNames(), cold.MarketNames()) {
		t.Fatalf("%s: markets %v, cold build has %v", name, d.MarketNames(), cold.MarketNames())
	}
	for _, m := range cold.MarketNames() {
		if !reflect.DeepEqual(keys(d.AppsIn(m)), keys(cold.AppsIn(m))) {
			t.Fatalf("%s: listings of %s diverge from the cold build", name, m)
		}
	}
	dump := func(src query.Source) []byte {
		res, err := src.Scan(query.Query{})
		if err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		b, err := json.Marshal(struct {
			Rows  any
			Total int
		}{res.Rows, res.Meta.TotalMatched})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(dump(d.QuerySource())) != string(dump(cold.QuerySource())) {
		t.Fatalf("%s: the engine's full dump diverges from the cold build", name)
	}
}

// appendEpoch applies one delta and requires it to take the delta-sized
// path: nothing re-detected, the engine sealed from prev's.
func appendEpoch(t *testing.T, st *IngestState, prev *Dataset, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) *Dataset {
	t.Helper()
	d, stats := st.Append(prev, prev.CrawlTime, records, apkOf)
	if stats.Redetected != 0 || !stats.EngineSealed {
		t.Fatalf("append took the rebuild path: %+v", stats)
	}
	return d
}

// exportColumns builds every query column of d (so the next append carries
// them all) and returns them as exported.
func exportColumns(t *testing.T, d *Dataset) []query.ColumnData {
	t.Helper()
	cols, err := d.ExportQueryColumns()
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// fixedPlane returns the address of the first value of cd's fixed-width
// value plane — the planes an append always grows in place when it claims
// the column and the plane has room — or nil for a string column.
func fixedPlane(cd query.ColumnData) any {
	switch {
	case len(cd.Ints) > 0:
		return &cd.Ints[0]
	case len(cd.Floats) > 0:
		return &cd.Floats[0]
	case len(cd.Bools) > 0:
		return &cd.Bools[0]
	case len(cd.TimeSec) > 0:
		return &cd.TimeSec[0]
	}
	return nil
}

// requirePlanesShared asserts that every fixed-width plane of next is (or,
// with shared false, is not) the same memory as prev's, column by column.
func requirePlanesShared(t *testing.T, what string, prev, next []query.ColumnData, shared bool) {
	t.Helper()
	planes := 0
	for i := range prev {
		p, q := fixedPlane(prev[i]), fixedPlane(next[i])
		if p == nil {
			continue
		}
		planes++
		if (p == q) != shared {
			t.Fatalf("%s: plane of %s shared with its predecessor's: %v, want %v", what, prev[i].Name, p == q, shared)
		}
	}
	if planes == 0 {
		t.Fatalf("%s: no fixed-width plane to observe", what)
	}
}

// TestAppendForkCopiesClaimedDataset builds two appends of different deltas
// from one warmed epoch whose every column is built. Only the first may grow
// the epoch's listing and per-market slices and its engine's planes in
// place; the second must copy them. Both must equal their cold builds, and
// the first and the epoch they share must still equal theirs after the
// second is built.
func TestAppendForkCopiesClaimedDataset(t *testing.T) {
	records, apkOf, nBase := epochCorpus(t)
	st := NewIngestState(DefaultEnrichOptions())
	d0, _ := st.Append(nil, testFixture(t).first.CrawlTime, records[:nBase], apkOf)
	exportColumns(t, d0)
	// d1 is itself an append, so its slices and planes have room past its
	// rows.
	n := nBase + 30
	d1 := appendEpoch(t, st, d0, records[nBase:n], apkOf)
	cols1 := exportColumns(t, d1)
	deltaA, deltaB := records[n:n+40], records[n+40:n+100]

	dA := appendEpoch(t, st, d1, deltaA, apkOf)
	wantA := append(append([]appmeta.Record{}, records[:n]...), deltaA...)
	requireSameEpoch(t, "first", dA, wantA, apkOf)
	dB := appendEpoch(t, st, d1, deltaB, apkOf)
	requireSameEpoch(t, "fork", dB, append(append([]appmeta.Record{}, records[:n]...), deltaB...), apkOf)
	requireSameEpoch(t, "first after the fork", dA, wantA, apkOf)
	requireSameEpoch(t, "shared epoch", d1, records[:n], apkOf)

	// Observe the routes: the first append grew d1's listing array and
	// column planes in place, the fork copied them.
	if &dA.Apps[0] != &d1.Apps[0] {
		t.Fatal("the first append copied the listings instead of growing them in place")
	}
	if &dB.Apps[0] == &d1.Apps[0] {
		t.Fatal("the fork wrote into the listing array the first append claimed")
	}
	requirePlanesShared(t, "first", cols1, exportColumns(t, dA), true)
	requirePlanesShared(t, "fork", cols1, exportColumns(t, dB), false)
}

// TestEpochSlicesCapped: after a delta, every slice a dataset hands out —
// Apps, AppsIn, GooglePlayApps and the exported column planes — has len ==
// cap, so an append to the previous epoch's slices copies them instead of
// writing over the rows the next epoch placed in their spare capacity. Every
// column is built before each append, so the planes carried into d1 and d2
// have spare capacity, and d2's share d1's memory.
func TestEpochSlicesCapped(t *testing.T) {
	records, apkOf, nBase := epochCorpus(t)
	st := NewIngestState(DefaultEnrichOptions())
	d0, _ := st.Append(nil, testFixture(t).first.CrawlTime, records[:nBase], apkOf)
	exportColumns(t, d0)
	d1 := appendEpoch(t, st, d0, records[nBase:nBase+60], apkOf)
	cols1 := exportColumns(t, d1)
	d2 := appendEpoch(t, st, d1, records[nBase+60:nBase+120], apkOf)
	cols2 := exportColumns(t, d2)
	requirePlanesShared(t, "d2", cols1, cols2, true)

	requireCapped := func(what string, n, c int) {
		t.Helper()
		if n != c {
			t.Fatalf("%s has len %d but cap %d", what, n, c)
		}
	}
	for _, epoch := range []struct {
		d    *Dataset
		cols []query.ColumnData
	}{{d1, cols1}, {d2, cols2}} {
		d := epoch.d
		requireCapped("Apps", len(d.Apps), cap(d.Apps))
		for _, m := range d.MarketNames() {
			apps := d.AppsIn(m)
			requireCapped("AppsIn("+m+")", len(apps), cap(apps))
		}
		gp := d.GooglePlayApps()
		requireCapped("GooglePlayApps", len(gp), cap(gp))
		for _, cd := range epoch.cols {
			for plane, s := range map[string][2]int{
				"NullWords": {len(cd.NullWords), cap(cd.NullWords)},
				"Ints":      {len(cd.Ints), cap(cd.Ints)},
				"Floats":    {len(cd.Floats), cap(cd.Floats)},
				"Strs":      {len(cd.Strs), cap(cd.Strs)},
				"Bools":     {len(cd.Bools), cap(cd.Bools)},
				"TimeSec":   {len(cd.TimeSec), cap(cd.TimeSec)},
				"TimeNsec":  {len(cd.TimeNsec), cap(cd.TimeNsec)},
				"TimeOff":   {len(cd.TimeOff), cap(cd.TimeOff)},
				"Dict":      {len(cd.Dict), cap(cd.Dict)},
				"Codes":     {len(cd.Codes), cap(cd.Codes)},
			} {
				requireCapped(cd.Name+"."+plane, s[0], s[1])
			}
		}
	}

	intruder := &App{Meta: appmeta.Record{Market: "intruder", Package: "intruder"}}
	_ = append(d1.Apps, intruder)
	for _, m := range d1.MarketNames() {
		_ = append(d1.AppsIn(m), intruder)
	}
	_ = append(d1.GooglePlayApps(), intruder)
	for _, cd := range cols1 {
		if len(cd.Ints) > 0 {
			_ = append(cd.Ints, -1)
		}
	}
	requireSameEpoch(t, "next epoch", d2, records[:nBase+120], apkOf)
}
