package durable

// Unit tests for the version-2 paged snapshot format: the one reader
// validates structure without touching pages, per-page checksums catch
// corruption at fetch time, multi-page columns round-trip, and files in any
// other format version are refused with ErrSnapshotVersion (never
// quarantined, never partially adopted).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"marketscope/internal/query"
)

// TestSnapshotMultiPageRoundTrip shrinks pageRows so every column spans
// several pages, and requires both the full load and the every-flip
// detection property to hold on the multi-page layout.
func TestSnapshotMultiPageRoundTrip(t *testing.T) {
	withPageRows(t, 2)
	want := testSnapshotData()
	full := encodeSnapshot(want)
	got, err := loadBytes(t, t.TempDir(), full)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got.columns, want.columns) {
		t.Fatalf("columns mismatch:\n got %+v\nwant %+v", got.columns, want.columns)
	}
	requireEveryFlipDetected(t, full)
}

// withPageRows sets pageRows for the rest of the test.
func withPageRows(t testing.TB, rows int) {
	old := pageRows
	pageRows = rows
	t.Cleanup(func() { pageRows = old })
}

// multiPageSnapshotData is testSnapshotData with seven-row columns of every
// kind and layout, so that at pageRows 2 or 3 every column spans several
// frames and its last page is short: ints and floats at their extremes,
// bools, times before 1970 and in year 9999 with sub-second nanoseconds and
// non-zero offsets, dictionary strings, plain strings including empty ones,
// and an all-null column. The codec does not tie a column's length to the
// record count.
func multiPageSnapshotData() *snapshotData {
	data := testSnapshotData()
	zone := func(nulls, minRow, maxRow int32) []query.ZoneData {
		return []query.ZoneData{{Rows: 7, Nulls: nulls, MinRow: minRow, MaxRow: maxRow}}
	}
	data.columns = []query.ColumnData{
		{
			Name: "downloads", Kind: query.KindInt, NullWords: []uint64{0x8}, NullCount: 1,
			Ints:        []int64{10, -20, 30, 0, math.MaxInt64, math.MinInt64, 7},
			SegmentRows: 4096, Zones: zone(1, 5, 4),
		},
		{
			Name: "rating", Kind: query.KindFloat, NullWords: []uint64{0},
			Floats:      []float64{1.5, -2.5, 0, math.Inf(1), 4.25, math.SmallestNonzeroFloat64, -0.5},
			SegmentRows: 4096, Zones: zone(0, 1, 3),
		},
		{
			Name: "has_ads", Kind: query.KindBool, NullWords: []uint64{0},
			Bools:       []bool{true, false, true, true, false, false, true},
			SegmentRows: 4096, Zones: zone(0, -1, -1),
		},
		{
			Name: "release_date", Kind: query.KindTime, NullWords: []uint64{0x4}, NullCount: 1,
			TimeSec:     []int64{-2208988800, -1, 0, 253402300799, 1525176000, 1525176000, 1525176000},
			TimeNsec:    []int32{0, 999999999, 0, 999999999, 1, 1, 500000000},
			TimeOff:     []int32{-25200, 28800, 0, -25200, 20700, 0, 28800},
			SegmentRows: 4096, Zones: zone(1, 0, 3),
		},
		{
			Name: "market", Kind: query.KindString, NullWords: []uint64{0},
			Dict: []string{"", "m1", "m2"}, Codes: []uint32{1, 1, 2, 0, 2, 1, 1},
			SegmentRows: 4096, Zones: zone(0, 3, 2),
		},
		{
			Name: "app_name", Kind: query.KindString, NullWords: []uint64{0x20}, NullCount: 1,
			Strs:        []string{"a", "", "ccc", "", "\x00é", "", "g"},
			SegmentRows: 4096, Zones: zone(1, 1, 6),
		},
		{
			Name: "category", Kind: query.KindString, NullWords: []uint64{0x7f}, NullCount: 7,
			Strs:        []string{"", "", "", "", "", "", ""},
			SegmentRows: 4096, Zones: zone(7, -1, -1),
		},
	}
	return data
}

// TestOpenSnapshotLazyRoundTrip writes a snapshot, opens it lazily, and
// fetches every column through the fetcher: each must equal the exported
// original exactly. At pageRows 2 and 3 the seven-row columns span several
// frames each, the last one short.
func TestOpenSnapshotLazyRoundTrip(t *testing.T) {
	for _, rows := range []int{pageRows, 2, 3} {
		for _, want := range []*snapshotData{testSnapshotData(), multiPageSnapshotData()} {
			t.Run(fmt.Sprintf("pageRows_%d/rows_%d", rows, columnRows(&want.columns[0])), func(t *testing.T) {
				withPageRows(t, rows)
				lazyRoundTrip(t, want)
			})
		}
	}
}

func lazyRoundTrip(t *testing.T, want *snapshotData) {
	path, err := writeSnapshot(OSFS, t.TempDir(), want)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	lz, err := openSnapshot(OSFS, path)
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	if lz.cursor != want.cursor || !lz.crawlTime.Equal(want.crawlTime) {
		t.Fatalf("header mismatch: %d/%v", lz.cursor, lz.crawlTime)
	}
	if !reflect.DeepEqual(lz.records, recordsOf(want.apps)) {
		t.Fatal("records mismatch")
	}
	if !reflect.DeepEqual(lz.blobs, want.blobs) {
		t.Fatalf("blobs mismatch: %v", lz.blobs)
	}
	if lz.fetcher == nil {
		t.Fatal("no fetcher on a snapshot with columns")
	}
	names := lz.fetcher.Columns()
	if len(names) != len(want.columns) {
		t.Fatalf("fetcher lists %d columns, want %d", len(names), len(want.columns))
	}
	for i, wc := range want.columns {
		if names[i] != wc.Name {
			t.Fatalf("column %d is %q, want %q", i, names[i], wc.Name)
		}
		if b := lz.fetcher.ColumnBytes(wc.Name); b <= 0 {
			t.Fatalf("column %q budget charge %d", wc.Name, b)
		}
		m := lz.fetcher.byName[wc.Name]
		if n := columnRows(&wc); len(m.pages) != (n+pageRows-1)/pageRows {
			t.Fatalf("column %q: %d rows in %d pages at pageRows %d", wc.Name, n, len(m.pages), pageRows)
		}
		got, err := lz.fetcher.FetchColumn(context.Background(), wc.Name)
		if err != nil {
			t.Fatalf("fetch %q: %v", wc.Name, err)
		}
		if !reflect.DeepEqual(*got, wc) {
			t.Fatalf("column %q mismatch:\n got %+v\nwant %+v", wc.Name, *got, wc)
		}
	}
	if _, err := lz.fetcher.FetchColumn(context.Background(), "no-such-column"); err == nil {
		t.Fatal("unknown column fetched")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lz.fetcher.FetchColumn(ctx, names[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch err = %v", err)
	}
}

// TestLazyFetchDetectsPageCorruption damages one page frame inside the pages
// section after the lazy open validated the file: the open itself must not
// notice (pages are read lazily) but the fetch of the damaged column must
// fail with query.ErrPageCorrupt, while undamaged columns still fetch
// cleanly. The damage is a flipped byte in the first page's payload, in a
// later page's payload, or in a later frame's length echo.
func TestLazyFetchDetectsPageCorruption(t *testing.T) {
	for _, d := range []struct {
		name   string
		rows   int
		data   *snapshotData
		column int
		// at returns the byte to corrupt, relative to the pages section,
		// given the damaged column's page table.
		at func(pages []pageEntry) uint64
	}{
		{"first_page_payload", pageRows, testSnapshotData(), 0, func(p []pageEntry) uint64 { return p[0].off + 8 }},
		{"later_page_payload", 2, multiPageSnapshotData(), 4, func(p []pageEntry) uint64 { return p[2].off + 8 }},
		{"later_length_echo", 2, multiPageSnapshotData(), 3, func(p []pageEntry) uint64 { return p[len(p)-1].off }},
	} {
		t.Run(d.name, func(t *testing.T) {
			withPageRows(t, d.rows)
			path, err := writeSnapshot(OSFS, t.TempDir(), d.data)
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			lz, err := openSnapshot(OSFS, path)
			if err != nil {
				t.Fatalf("lazy open: %v", err)
			}
			damaged := lz.fetcher.order[d.column]
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[lz.fetcher.pagesOff+int64(d.at(lz.fetcher.byName[damaged].pages))] ^= 0x5a
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			lz2, err := openSnapshot(OSFS, path)
			if err != nil {
				t.Fatalf("lazy reopen of page-corrupt file: %v", err)
			}
			if _, err := lz2.fetcher.FetchColumn(context.Background(), damaged); !errors.Is(err, query.ErrPageCorrupt) {
				t.Fatalf("corrupt fetch err = %v, want ErrPageCorrupt", err)
			}
			for i, wc := range d.data.columns {
				if i == d.column {
					continue
				}
				got, err := lz2.fetcher.FetchColumn(context.Background(), wc.Name)
				if err != nil {
					t.Fatalf("undamaged column %q fetch: %v", wc.Name, err)
				}
				if !reflect.DeepEqual(*got, wc) {
					t.Fatalf("undamaged column %q mismatch:\n got %+v\nwant %+v", wc.Name, *got, wc)
				}
			}
			// The full load must refuse the whole file.
			if _, err := loadFull(OSFS, path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("full load of page-corrupt file err = %v", err)
			}
		})
	}
}

// TestPagedFetchBufferReuse fetches from one fetcher on several goroutines
// at once, outside any page pool, so every fetch allocates its own planes
// and read buffer: every fetch must equal the original, and a plain string
// column fetched first must keep its values while later fetches run. Reuse
// of lent memory is TestPagedResultsSurviveRecycling's subject.
func TestPagedFetchBufferReuse(t *testing.T) {
	withPageRows(t, 2)
	want := multiPageSnapshotData()
	path, err := writeSnapshot(OSFS, t.TempDir(), want)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	lz, err := openSnapshot(OSFS, path)
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	kept := map[string]*query.ColumnData{}
	for _, wc := range want.columns {
		if kept[wc.Name], err = lz.fetcher.FetchColumn(context.Background(), wc.Name); err != nil {
			t.Fatalf("fetch %q: %v", wc.Name, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, wc := range want.columns {
					got, err := lz.fetcher.FetchColumn(context.Background(), wc.Name)
					if err != nil {
						t.Errorf("fetch %q: %v", wc.Name, err)
						return
					}
					if !reflect.DeepEqual(*got, wc) {
						t.Errorf("column %q mismatch:\n got %+v\nwant %+v", wc.Name, *got, wc)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, wc := range want.columns {
		if !reflect.DeepEqual(*kept[wc.Name], wc) {
			t.Fatalf("column %q changed after later fetches:\n got %+v\nwant %+v", wc.Name, *kept[wc.Name], wc)
		}
	}
}

// TestPagedDecodeRejectsBadPayloads decodes page payloads that are wrong in
// content, as a writer bug would make them behind a valid checksum: each
// must fail to decode, never fill the planes silently.
func TestPagedDecodeRejectsBadPayloads(t *testing.T) {
	plane := func(ss ...string) []byte {
		var e encoder
		e.strsPlane(ss)
		return e.buf
	}
	overlong := plane("ab", "c")
	overlong[4] = 9 // the first string claims more bytes than remain
	for _, c := range []struct {
		name    string
		cd      query.ColumnData
		layout  uint8
		payload []byte
	}{
		{"bool byte 2", query.ColumnData{Kind: query.KindBool, Bools: make([]bool, 3)}, 0, []byte{0, 1, 2}},
		{"short ints", query.ColumnData{Kind: query.KindInt, Ints: make([]int64, 2)}, 0, make([]byte, 15)},
		{"trailing byte", query.ColumnData{Kind: query.KindFloat, Floats: make([]float64, 1)}, 0, make([]byte, 9)},
		{"short time offsets", query.ColumnData{Kind: query.KindTime, TimeSec: make([]int64, 2),
			TimeNsec: make([]int32, 2), TimeOff: make([]int32, 2)}, 0, make([]byte, 31)},
		{"short codes", query.ColumnData{Kind: query.KindString, Codes: make([]uint32, 2)}, strLayoutDict, make([]byte, 7)},
		{"string count", query.ColumnData{Kind: query.KindString, Strs: make([]string, 2)}, strLayoutPlain, plane("a")},
		{"string bytes past the end", query.ColumnData{Kind: query.KindString, Strs: make([]string, 2)}, strLayoutPlain, overlong},
	} {
		n := columnRows(&c.cd)
		if err := decodePageInto(&c.cd, c.layout, 0, n, c.payload); err == nil {
			t.Errorf("%s: decoded cleanly", c.name)
		}
	}
}

// patchHeaderVersion rewrites the version field of an encoded snapshot's
// header section and fixes the section checksum, producing a structurally
// valid file claiming another format version.
func patchHeaderVersion(buf []byte, version uint32) []byte {
	out := append([]byte(nil), buf...)
	n := binary.LittleEndian.Uint64(out[len(snapMagic)+4:])
	payload := out[len(snapMagic)+12 : len(snapMagic)+12+int(n)]
	binary.LittleEndian.PutUint32(payload, version)
	binary.LittleEndian.PutUint32(out[len(snapMagic)+12+int(n):], crc32.Checksum(payload, castagnoli))
	return out
}

// TestSnapshotFutureVersionRefused covers every refusal trigger — an unknown
// magic with the MSNAP prefix, and a known magic whose header carries a
// newer version or version 1 — on the one reader, in both the open and the
// full load. The error must be ErrSnapshotVersion, distinguishable from
// corruption; a non-MSNAP magic stays plain corruption.
func TestSnapshotFutureVersionRefused(t *testing.T) {
	full := encodeSnapshot(testSnapshotData())
	newerMagic := append([]byte(nil), full...)
	copy(newerMagic, "MSNAP009")
	junkMagic := append([]byte(nil), full...)
	copy(junkMagic, "NOTSNAPS")

	dir := t.TempDir()
	for name, blob := range map[string][]byte{
		"magic.snap":  newerMagic,
		"header.snap": patchHeaderVersion(full, snapVersionPaged+1),
		"v1.snap":     patchHeaderVersion(full, 1),
		"junk.snap":   junkMagic,
	} {
		path := dir + "/" + name
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, openErr := openSnapshot(OSFS, path)
		_, loadErr := loadFull(OSFS, path)
		for _, err := range []error{openErr, loadErr} {
			if name == "junk.snap" {
				if !errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion) {
					t.Fatalf("%s err = %v, want corruption", name, err)
				}
			} else if !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("%s err = %v, want ErrSnapshotVersion", name, err)
			}
		}
	}
}

// TestSnapshotUnknownSectionRefused overwrites the records section's id with
// one no version defines: the reader must reject the file as corrupt — a
// clear error, nothing partially adopted — rather than skipping the section.
func TestSnapshotUnknownSectionRefused(t *testing.T) {
	full := encodeSnapshot(testSnapshotData())
	mut := append([]byte(nil), full...)
	n := binary.LittleEndian.Uint64(mut[len(snapMagic)+4:])
	recOff := len(snapMagic) + 12 + int(n) + 4
	binary.LittleEndian.PutUint32(mut[recOff:], 99)
	if _, err := loadBytes(t, t.TempDir(), mut); !errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("unknown section err = %v", err)
	}
}

// TestSnapshotSectionLengthPastEOF gives the records section a length of
// 1 GiB, far past the end of the file but below maxLazySection: the reader
// must refuse the file as corrupt without allocating that length.
func TestSnapshotSectionLengthPastEOF(t *testing.T) {
	mut := encodeSnapshot(testSnapshotData())
	n := binary.LittleEndian.Uint64(mut[len(snapMagic)+4:])
	recOff := len(snapMagic) + 12 + int(n) + 4
	binary.LittleEndian.PutUint64(mut[recOff+4:], 1<<30)
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := loadBytes(t, dir, mut)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("section length past EOF err = %v", err)
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 1<<20 {
		t.Fatalf("refusing the file allocated %d bytes", a)
	}
}

// TestSnapshotPageRowsPastPageLength writes a file whose checksummed column
// metadata claims 2^27 rows for its first column, on the one 24-byte page
// that holds its 3 values: the open must refuse the file as corrupt before
// that row count sizes a plane, so neither the full load nor a paged fetch
// allocates for it.
func TestSnapshotPageRowsPastPageLength(t *testing.T) {
	data := testSnapshotData()
	metas, pagesLen := planPagedColumns(data.columns)
	lying := append([]pagedColumn(nil), metas...)
	lying[0].rows = 1 << 27
	lying[0].pages = []pageEntry{{off: metas[0].pages[0].off, length: metas[0].pages[0].length, rows: 1 << 27}}
	var buf bytes.Buffer
	if err := writeSections(&buf, []section{
		headerSection(data, snapVersionPaged),
		recordsSection(data.apps),
		blobsSection(data.blobs),
		colMetaSection(lying),
		pagesSection(data.columns, metas, pagesLen),
		footerSection,
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := loadBytes(t, dir, buf.Bytes())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("page rows past the page length: full load err = %v", err)
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 1<<20 {
		t.Fatalf("refusing the file allocated %d bytes", a)
	}
	if _, err := openSnapshot(OSFS, dir+"/case.snap"); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("page rows past the page length: open err = %v", err)
	}
}

// TestWALFutureVersionRefused patches a valid WAL's magic to a newer version:
// the scan must fail with ErrWALVersion (not corruption, which would invite a
// repair truncation) and leave the file untouched.
func TestWALFutureVersionRefused(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/wal.log"
	if err := createWAL(OSFS, dir, path, time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	w, err := openWALAppender(OSFS, path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, encodeListings(testListings())); err != nil {
		t.Fatal(err)
	}
	w.Close()

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob, "MSWAL002")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(OSFS, path, nil); !errors.Is(err, ErrWALVersion) {
		t.Fatalf("scan err = %v, want ErrWALVersion", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(blob) {
		t.Fatalf("refused WAL changed size: %d -> %d", len(blob), len(after))
	}
}

// pagedRow is the row type of TestPagedSteadyStateAllocation: one field of
// every kind and string layout a page holds.
type pagedRow struct {
	n    int64
	x    float64
	ok   bool
	at   time.Time
	kind string // dictionary-encoded
	name string // plain
}

func pagedRowRegistry() *query.Registry[pagedRow] {
	reg := query.NewRegistry[pagedRow]()
	for _, f := range []query.Field[pagedRow]{
		{Name: "n", Kind: query.KindInt, Extract: func(r pagedRow) (any, bool) { return r.n, true }},
		{Name: "x", Kind: query.KindFloat, Extract: func(r pagedRow) (any, bool) { return r.x, true }},
		{Name: "ok", Kind: query.KindBool, Extract: func(r pagedRow) (any, bool) { return r.ok, true }},
		{Name: "at", Kind: query.KindTime, Extract: func(r pagedRow) (any, bool) { return r.at, true }},
		{Name: "kind", Kind: query.KindString, Dictionary: true, Extract: func(r pagedRow) (any, bool) { return r.kind, true }},
		{Name: "name", Kind: query.KindString, Extract: func(r pagedRow) (any, bool) { return r.name, true }},
	} {
		reg.MustRegister(f)
	}
	return reg
}

// TestPagedSteadyStateAllocation pages six columns, one of every kind and
// string layout, in turn through the snapshot fetcher under a budget that
// holds only the largest, so no column stays resident until its next turn:
// every request fetches, and each round evicts as many columns as it
// fetches. Once the pool's free lists hold evicted memory, a fetch must
// decode into it: the bytes allocated per fetch stay below a quarter of the
// bytes fetched. Allocating the planes and read buffer afresh costs at
// least the fetched bytes. The GC is off while measuring, so that it does
// not empty the free lists (sync.Pools) mid-run.
func TestPagedSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put back")
	}
	const n = 1 << 14
	rows := make([]pagedRow, n)
	base := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i] = pagedRow{
			n: int64(i * 7), x: float64(i) / 3, ok: i%3 == 0,
			at:   base.Add(time.Duration(i) * time.Minute),
			kind: fmt.Sprintf("k%d", i%40), name: fmt.Sprintf("app %d", i),
		}
	}
	reg := pagedRowRegistry()
	data := &snapshotData{cursor: 1, columns: query.NewEngine(reg, rows).ExportColumns()}
	path, err := writeSnapshot(OSFS, t.TempDir(), data)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	lz, err := openSnapshot(OSFS, path)
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	names := lz.fetcher.Columns()
	var largest int64
	for _, name := range names {
		largest = max(largest, lz.fetcher.ColumnBytes(name))
	}
	pool := query.NewPagePool(largest, 0, time.Millisecond)
	e, err := query.NewEnginePaged(reg, rows, lz.fetcher, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Each request pins one column and no row survives its zone maps (no
	// value is null), so what it allocates besides the fetch is small and
	// fixed.
	round := func() (charged int64) {
		for _, name := range names {
			q := query.Query{Fields: []string{name}, Filters: []query.Filter{{Field: name, Op: query.OpIsNull, Value: true}}}
			if _, err := e.Scan(q); err != nil {
				t.Fatalf("scan %s: %v", name, err)
			}
			charged += lz.fetcher.ColumnBytes(name)
		}
		return charged
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		round()
	}
	const rounds = 20
	before, fetched := pool.Stats(), int64(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		fetched += round()
	}
	runtime.ReadMemStats(&ms1)
	after := pool.Stats()
	fetches := after.Fetches - before.Fetches
	if fetches != rounds*int64(len(names)) || after.Evictions-before.Evictions != fetches {
		t.Fatalf("%d fetches and %d evictions over %d requests: every request should fetch, and evict as much",
			fetches, after.Evictions-before.Evictions, rounds*len(names))
	}
	perFetch := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(fetches)
	perFetchBytes := float64(fetched) / float64(fetches)
	t.Logf("%.0f bytes allocated per fetch of %.0f column bytes (%.3f)", perFetch, perFetchBytes, perFetch/perFetchBytes)
	if perFetch >= perFetchBytes/4 {
		t.Fatalf("%.0f bytes allocated per fetch of %.0f column bytes: page-ins do not reuse evicted memory",
			perFetch, perFetchBytes)
	}
}
