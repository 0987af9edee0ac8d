package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

func testSnapshotData() *snapshotData {
	return &snapshotData{
		cursor:    7,
		crawlTime: time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC),
		apps: listingsOf(
			testRecord("m1", "com.a"),
			testRecord("m1", "com.b"),
			testRecord("m2", "com.a"),
		),
		blobs: map[appmeta.Key][]byte{
			{Market: "m1", Package: "com.a"}: {0xde, 0xad},
			{Market: "m1", Package: "com.b"}: {},
		},
		columns: []query.ColumnData{
			{
				Name: "downloads", Kind: query.KindInt,
				NullWords: []uint64{0x4}, NullCount: 1,
				Ints:        []int64{10, 20, 0},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, Nulls: 1, MinRow: 0, MaxRow: 1}},
			},
			{
				Name: "rating", Kind: query.KindFloat,
				NullWords: []uint64{0}, Floats: []float64{1.5, 2.5, 3.5},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, MinRow: 0, MaxRow: 2}},
			},
			{
				Name: "market", Kind: query.KindString,
				NullWords: []uint64{0},
				Dict:      []string{"m1", "m2"}, Codes: []uint32{0, 0, 1},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, MinRow: 0, MaxRow: 2}},
			},
			{
				Name: "app_name", Kind: query.KindString,
				NullWords:   []uint64{0},
				Strs:        []string{"a", "b", "c"},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, MinRow: 0, MaxRow: 1}},
			},
			{
				Name: "has_ads", Kind: query.KindBool,
				NullWords: []uint64{0}, Bools: []bool{true, false, true},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, MinRow: -1, MaxRow: -1}},
			},
			{
				Name: "release_date", Kind: query.KindTime,
				NullWords: []uint64{0x2}, NullCount: 1,
				TimeSec: []int64{100, 0, 300}, TimeNsec: []int32{0, 0, 999}, TimeOff: []int32{0, 0, 28800},
				SegmentRows: 4096,
				Zones:       []query.ZoneData{{Rows: 3, Nulls: 1, MinRow: 0, MaxRow: 2}},
			},
		},
	}
}

// listingsOf wraps records as the dataset listings a snapshot writes.
func listingsOf(records ...appmeta.Record) []*analysis.App {
	apps := make([]*analysis.App, len(records))
	for i := range records {
		apps[i] = &analysis.App{Meta: records[i]}
	}
	return apps
}

// recordsOf returns the listings' records.
func recordsOf(apps []*analysis.App) []appmeta.Record {
	records := make([]appmeta.Record, len(apps))
	for i, app := range apps {
		records[i] = app.Meta
	}
	return records
}

// encodeSnapshot is the streamed writer aimed at memory: the exact bytes
// writeSnapshot puts in a file.
func encodeSnapshot(data *snapshotData) []byte {
	var buf bytes.Buffer
	if err := writeSections(&buf, snapshotSections(data)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// loadFull is the full load a materialized store recovers with: the one
// sectioned open, then every column read and decoded through the fetcher,
// checking every checksum the file carries.
func loadFull(fsys FS, path string) (*snapshotData, error) {
	lz, err := openSnapshot(fsys, path)
	if err != nil {
		return nil, err
	}
	data := &snapshotData{cursor: lz.cursor, crawlTime: lz.crawlTime, apps: listingsOf(lz.records...), blobs: lz.blobs}
	if lz.fetcher != nil {
		if data.columns, err = lz.fetcher.loadColumns(); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// loadBytes writes b as the snapshot file dir/case.snap and full-loads it.
func loadBytes(t testing.TB, dir string, b []byte) (*snapshotData, error) {
	t.Helper()
	path := dir + "/case.snap"
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return loadFull(OSFS, path)
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	want := testSnapshotData()
	got, err := loadBytes(t, t.TempDir(), encodeSnapshot(want))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.cursor != want.cursor || !got.crawlTime.Equal(want.crawlTime) {
		t.Fatalf("header mismatch: %d/%v", got.cursor, got.crawlTime)
	}
	if !reflect.DeepEqual(recordsOf(got.apps), recordsOf(want.apps)) {
		t.Fatal("records mismatch")
	}
	if !reflect.DeepEqual(got.blobs, want.blobs) {
		t.Fatalf("blobs mismatch: %v", got.blobs)
	}
	if !reflect.DeepEqual(got.columns, want.columns) {
		t.Fatalf("columns mismatch:\n got %+v\nwant %+v", got.columns, want.columns)
	}
}

// TestSnapshotEveryFlipDetected flips every byte of a snapshot file (and
// truncates it at every length) and requires the full load to fail cleanly
// each time — the section, page and pages-section checksums and the footer
// leave no undetectable single-byte corruption.
func TestSnapshotEveryFlipDetected(t *testing.T) {
	requireEveryFlipDetected(t, encodeSnapshot(testSnapshotData()))
}

// requireEveryFlipDetected full-loads every single-byte flip, every
// truncation and a trailing byte of the snapshot full, and requires each to
// fail. The flips span the pages section's trailer, which only the full load
// reads.
func requireEveryFlipDetected(t *testing.T, full []byte) {
	t.Helper()
	dir := t.TempDir()
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		if _, err := loadBytes(t, dir, mut); err == nil {
			t.Fatalf("flip at byte %d loaded cleanly", i)
		}
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := loadBytes(t, dir, full[:cut]); err == nil {
			t.Fatalf("truncation at %d loaded cleanly", cut)
		}
	}
	if _, err := loadBytes(t, dir, append(full, 0)); err == nil {
		t.Fatal("trailing byte loaded cleanly")
	}
}

func TestSnapshotWriteLoad(t *testing.T) {
	dir := t.TempDir()
	want := testSnapshotData()
	path, err := writeSnapshot(OSFS, dir, want)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := snapshotName(want.cursor); path != dir+"/"+got {
		t.Fatalf("path %q, want suffix %q", path, got)
	}
	got, err := loadFull(OSFS, path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.cursor != want.cursor || len(got.apps) != len(want.apps) {
		t.Fatalf("reloaded cursor %d records %d", got.cursor, len(got.apps))
	}
	// No temp file left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in dir after write", len(entries))
	}
	// Corrupt on disk -> ErrSnapshotCorrupt.
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFull(OSFS, path); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt load err = %v", err)
	}
}

func TestParseSnapshotName(t *testing.T) {
	name := snapshotName(0xabc)
	cursor, ok := parseSnapshotName(name)
	if !ok || cursor != 0xabc {
		t.Fatalf("parse %q = %d, %v", name, cursor, ok)
	}
	for _, bad := range []string{
		"wal.log", "snap-xyz.snap", "snap-0000000000000abc.snap.corrupt",
		"snap-0000000000000abc.snap.tmp", "snap-abc.snap", "",
	} {
		if _, ok := parseSnapshotName(bad); ok {
			t.Fatalf("parsed %q", bad)
		}
	}
}

func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	path := dir + "/fuzz.wal"
	if err := createWAL(OSFS, dir, path, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		f.Fatal(err)
	}
	w, err := openWALAppender(OSFS, path, FsyncOff)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Append(0, encodeListings(testListings()))
	_ = w.Append(1, nil)
	w.Close()
	seedBytes, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedBytes)
	f.Add([]byte(walMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := dir + "/case.wal"
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		// Mutated bytes must scan to a clean prefix + torn tail or a clean
		// error — never a panic; every surviving record must decode or the
		// scan must stop before it.
		info, err := scanWAL(OSFS, p, func(seq uint64, payload []byte) error {
			_, derr := decodeListings(payload)
			_ = derr // either outcome is fine; it must simply not panic
			return nil
		})
		if err == nil && info.exists && !info.badHeader && info.tornAt >= 0 {
			if info.tornAt < int64(walHeaderLen) {
				t.Fatalf("torn offset %d inside header", info.tornAt)
			}
		}
	})
}

// FuzzSnapshotLoad and FuzzPagedFetch run arbitrary bytes through the one
// snapshot reader with the same check, checkSnapshotReader; they differ only
// in their seeds. Both start from the files with posting lists under
// testdata. FuzzSnapshotLoad adds single-page files and bare headers.
func FuzzSnapshotLoad(f *testing.F) {
	addPostingsFiles(f)
	f.Add(encodeSnapshot(testSnapshotData()))
	f.Add(encodeSnapshot(&snapshotData{}))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) { checkSnapshotReader(t, dir, data) })
}

// FuzzPagedFetch adds files whose columns span several page frames
// (pageRows 2 encodings) and a version-1 header, which the reader refuses.
func FuzzPagedFetch(f *testing.F) {
	addPostingsFiles(f)
	f.Add(encodeSnapshot(multiPageSnapshotData()))
	f.Add(patchHeaderVersion(encodeSnapshot(testSnapshotData()), 1))
	f.Add(encodeSnapshot(&snapshotData{}))
	old := pageRows
	pageRows = 2
	f.Add(encodeSnapshot(multiPageSnapshotData()))
	f.Add(encodeSnapshot(testSnapshotData()))
	pageRows = old
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) { checkSnapshotReader(t, dir, data) })
}

// checkSnapshotReader loads data in full. Whatever the full load accepts must
// re-encode through the streamed writer and load back identically, and each
// column fetched lazily from the same file must equal the full load's.
// Anything else must fail cleanly: no input may panic or drive an
// implausible allocation.
func checkSnapshotReader(t *testing.T, dir string, data []byte) {
	got, err := loadBytes(t, dir, data)
	if err != nil {
		return
	}
	lz, err := openSnapshot(OSFS, dir+"/case.snap")
	if err != nil {
		t.Fatalf("reopen of a loaded snapshot: %v", err)
	}
	for _, wc := range got.columns {
		fetched, err := lz.fetcher.FetchColumn(context.Background(), wc.Name)
		if err != nil {
			t.Fatalf("fetch %q: %v", wc.Name, err)
		}
		if !reflect.DeepEqual(*fetched, wc) {
			t.Fatalf("column %q: lazy fetch diverges from the full load:\n got %+v\nwant %+v", wc.Name, *fetched, wc)
		}
	}
	// The format is canonical for valid states.
	again, err := loadBytes(t, dir, encodeSnapshot(got))
	if err != nil {
		t.Fatalf("re-encode of a loaded snapshot failed to load: %v", err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("re-encoded snapshot loads differently:\n got %+v\nwant %+v", again, got)
	}
}

// TestSnapshotGoldenBytes pins the version-2 bytes the writer produces: a
// length and SHA-256 per fixture and page geometry. Any change to the
// layout, the section order or a checksum moves a digest. The bytes of
// files that still carried posting lists are pinned by the files under
// testdata (TestLoadsFilesWithPostingLists).
func TestSnapshotGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		pageRows int
		name     string
		data     func() *snapshotData
		size     int
		sha256   string
	}{
		{32768, "test", testSnapshotData, 1419, "85fb6b8411cf2236d36df34a8d6ed79a993358b5028c13bf53ca31a0ef26a1ea"},
		{32768, "multi", multiPageSnapshotData, 1733, "bc7847986252f395171886a16d5ddde4de104a8ab6db55ee840457680b54098e"},
		{32768, "empty", emptySnapshotData, 164, "0bf6427b3754bf09e578ee7316bcffdabd5a561d94f42c1813e0a3f91e16ff18"},
		{2, "test", testSnapshotData, 1567, "a88152a5ed281cba332bdd27f9b85d129753db7512777c1e9ca853dc21d79559"},
		{2, "multi", multiPageSnapshotData, 2261, "c20f9c56ebe5f4d3688094e2681ed19cb305f4e93af0d7328489cfd0c42a95d7"},
		{2, "empty", emptySnapshotData, 164, "0bf6427b3754bf09e578ee7316bcffdabd5a561d94f42c1813e0a3f91e16ff18"},
		{3, "test", testSnapshotData, 1419, "85fb6b8411cf2236d36df34a8d6ed79a993358b5028c13bf53ca31a0ef26a1ea"},
		{3, "multi", multiPageSnapshotData, 2085, "712f99648ae903e4043de3d924c91a56cf65cf9a97be15454b54145839997feb"},
		{3, "empty", emptySnapshotData, 164, "0bf6427b3754bf09e578ee7316bcffdabd5a561d94f42c1813e0a3f91e16ff18"},
	} {
		withPageRows(t, tc.pageRows)
		got := encodeSnapshot(tc.data())
		sum := sha256.Sum256(got)
		if len(got) != tc.size || hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("pageRows %d %s: %d bytes sha256 %x, want %d bytes %s",
				tc.pageRows, tc.name, len(got), sum, tc.size, tc.sha256)
		}
	}
}

func emptySnapshotData() *snapshotData { return &snapshotData{} }

// postingsFiles are version-2 files from a writer that still stored each
// dictionary code's posting list in the column metadata. Each holds
// encodeSnapshot(data()) at the given page geometry, as that writer
// produced it.
var postingsFiles = []struct {
	path     string
	pageRows int
	data     func() *snapshotData
}{
	{"testdata/postings-test.snap", 32768, testSnapshotData},
	{"testdata/postings-multi-pagerows2.snap", 2, multiPageSnapshotData},
}

func addPostingsFiles(f *testing.F) {
	for _, pf := range postingsFiles {
		b, err := os.ReadFile(pf.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// TestLoadsFilesWithPostingLists loads each of postingsFiles to the state
// this writer's file of the same data loads to, and runs the fuzz targets'
// check on it, which fetches every column lazily. It then imports the
// columns into a query engine over a registry of the same names, kinds and
// dictionary hint: the import holds the earlier writer's zone maps, a bool
// column's included, to this build's rules, and must export them back
// unchanged.
func TestLoadsFilesWithPostingLists(t *testing.T) {
	for _, pf := range postingsFiles {
		t.Run(pf.path, func(t *testing.T) {
			old, err := os.ReadFile(pf.path)
			if err != nil {
				t.Fatal(err)
			}
			withPageRows(t, pf.pageRows)
			dir := t.TempDir()
			want, err := loadBytes(t, dir, encodeSnapshot(pf.data()))
			if err != nil {
				t.Fatalf("load of this writer's file: %v", err)
			}
			got, err := loadBytes(t, dir, old)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loads differently from this writer's file:\n got %+v\nwant %+v", got, want)
			}
			checkSnapshotReader(t, dir, old)

			reg := query.NewRegistry[struct{}]()
			for _, cd := range got.columns {
				reg.MustRegister(query.Field[struct{}]{
					Name: cd.Name, Kind: cd.Kind, Indexable: true, Dictionary: cd.Name == "market",
					Extract: func(struct{}) (any, bool) { return nil, false },
				})
			}
			e, err := query.NewEngineFromColumns(reg, make([]struct{}, columnRows(&got.columns[0])), got.columns)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if exported := e.ExportColumns(); !reflect.DeepEqual(exported, got.columns) {
				t.Fatalf("import changed the columns:\n got %+v\nwant %+v", exported, got.columns)
			}
		})
	}
}

// TestTortureSnapshotLengthMismatch changes the data under planned sections,
// so that each section's bytes disagree with the length its frame already
// declared, and requires the write to fail: in memory with an error naming
// the section (or, for pages, the page), on disk with the temp file removed
// and no snapshot visible.
func TestTortureSnapshotLengthMismatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*snapshotData)
		want   string
	}{
		{"records", func(d *snapshotData) { d.apps[0].Meta.AppName += "x" }, "section 2 wrote"},
		{"blobs", func(d *snapshotData) { d.blobs[appmeta.Key{Market: "m1", Package: "com.b"}] = []byte{1} }, "section 3 wrote"},
		{"colmeta", func(d *snapshotData) { d.columns[2].Dict[0] += "x" }, "section 6 wrote"},
		{"pages", func(d *snapshotData) { d.columns[3].Strs[0] += "x" }, `column "app_name" page at 84 encoded 20 bytes, planned 19`},
	} {
		data := testSnapshotData()
		secs := snapshotSections(data)
		tc.mutate(data)
		if err := writeSections(io.Discard, secs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: write err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	dir := t.TempDir()
	data := testSnapshotData()
	secs := snapshotSections(data)
	data.apps[0].Meta.AppName += "x"
	if _, err := writeSnapshotFile(OSFS, dir, snapshotName(data.cursor), secs); err == nil {
		t.Fatal("a section longer than declared was written")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left %v", entries)
	}
}
