package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

func testSnapshotData() *snapshotData {
	return &snapshotData{
		cursor:    7,
		crawlTime: time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC),
		records: []appmeta.Record{
			testRecord("m1", "com.a"),
			testRecord("m1", "com.b"),
			testRecord("m2", "com.a"),
		},
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
				Postings:    [][]int32{{0, 1}, {2}},
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

// encodeSnapshot is the streamed writer aimed at memory: the exact bytes
// writeSnapshot puts in a file.
func encodeSnapshot(data *snapshotData) []byte {
	var buf bytes.Buffer
	if err := writeSections(&buf, snapshotSections(data)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// encodeSnapshotV1 writes the legacy version-1 layout — one columns section
// in place of column metadata and pages — for the dual-read tests.
func encodeSnapshotV1(data *snapshotData) []byte {
	var cols encoder
	cols.u32(uint32(len(data.columns)))
	for i := range data.columns {
		encodeColumn(&cols, &data.columns[i])
	}
	var buf bytes.Buffer
	err := writeSections(&buf, []section{
		headerSection(data, snapVersion),
		recordsSection(data.records),
		blobsSection(data.blobs),
		{id: secColumns, size: uint64(len(cols.buf)), emit: func(sw *sectionWriter) { sw.raw(cols.buf) }},
		footerSection,
	})
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func encodeColumn(e *encoder, c *query.ColumnData) {
	e.str(c.Name)
	e.str(string(c.Kind))
	e.u32(uint32(len(c.NullWords)))
	for _, w := range c.NullWords {
		e.u64(w)
	}
	e.u64(uint64(c.NullCount))
	e.bool(c.HasNaN)
	switch c.Kind {
	case query.KindInt:
		e.u32(uint32(len(c.Ints)))
		for _, v := range c.Ints {
			e.i64(v)
		}
	case query.KindFloat:
		e.u32(uint32(len(c.Floats)))
		for _, v := range c.Floats {
			e.f64(v)
		}
	case query.KindBool:
		e.u32(uint32(len(c.Bools)))
		for _, v := range c.Bools {
			e.bool(v)
		}
	case query.KindTime:
		// Planar: all seconds, then all nanoseconds, then all offsets, so the
		// decoder reads three bulk slices instead of framing per row.
		e.u32(uint32(len(c.TimeSec)))
		for _, v := range c.TimeSec {
			e.i64(v)
		}
		for _, v := range c.TimeNsec {
			e.i32(v)
		}
		for _, v := range c.TimeOff {
			e.i32(v)
		}
	case query.KindString:
		if c.Dict != nil {
			e.u8(strLayoutDict)
			e.strsPlane(c.Dict)
			e.u32(uint32(len(c.Codes)))
			for _, v := range c.Codes {
				e.u32(v)
			}
		} else {
			e.u8(strLayoutPlain)
			e.strsPlane(c.Strs)
		}
	}
	e.u32(uint32(c.SegmentRows))
	e.u32(uint32(len(c.Zones)))
	for _, z := range c.Zones {
		e.i32(z.Rows)
		e.i32(z.Nulls)
		e.i32(z.MinRow)
		e.i32(z.MaxRow)
	}
	e.bool(c.Postings != nil)
	if c.Postings != nil {
		e.u32(uint32(len(c.Postings)))
		for _, rows := range c.Postings {
			e.u32(uint32(len(rows)))
			for _, r := range rows {
				e.i32(r)
			}
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	want := testSnapshotData()
	got, err := decodeSnapshot(encodeSnapshot(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.cursor != want.cursor || !got.crawlTime.Equal(want.crawlTime) {
		t.Fatalf("header mismatch: %d/%v", got.cursor, got.crawlTime)
	}
	if !reflect.DeepEqual(got.records, want.records) {
		t.Fatal("records mismatch")
	}
	if !reflect.DeepEqual(got.blobs, want.blobs) {
		t.Fatalf("blobs mismatch: %v", got.blobs)
	}
	if !reflect.DeepEqual(got.columns, want.columns) {
		t.Fatalf("columns mismatch:\n got %+v\nwant %+v", got.columns, want.columns)
	}
}

// TestSnapshotEveryFlipDetected flips every byte of an encoded snapshot (and
// truncates at every length) and requires a clean decode error each time —
// the per-section checksums and footer leave no undetectable single-byte
// corruption.
func TestSnapshotEveryFlipDetected(t *testing.T) {
	full := encodeSnapshot(testSnapshotData())
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := decodeSnapshot(append(full, 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
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
	got, err := loadSnapshotFile(OSFS, path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.cursor != want.cursor || len(got.records) != len(want.records) {
		t.Fatalf("reloaded cursor %d records %d", got.cursor, len(got.records))
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
	if _, err := loadSnapshotFile(OSFS, path); !errors.Is(err, ErrSnapshotCorrupt) {
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

func FuzzSnapshotLoad(f *testing.F) {
	f.Add(encodeSnapshot(testSnapshotData()))
	f.Add(encodeSnapshot(&snapshotData{}))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must decode to a valid snapshot or a clean error —
		// never a panic, never an implausible allocation.
		data2, err := decodeSnapshot(data)
		if err == nil {
			// Whatever decoded must stream back out through the writer and
			// decode to the same thing (the format is canonical for valid
			// states).
			again, err := decodeSnapshot(encodeSnapshot(data2))
			if err != nil {
				t.Fatalf("re-encode of valid snapshot failed: %v", err)
			}
			if !reflect.DeepEqual(again, data2) {
				t.Fatalf("re-encoded snapshot decodes differently:\n got %+v\nwant %+v", again, data2)
			}
		}
	})
}

// TestSnapshotGoldenBytes pins the version-2 bytes the writer produces: a
// length and SHA-256 per fixture and page geometry, recorded from the
// whole-file encoder the streamed writer replaced. Any change to the layout,
// the section order or a checksum moves a digest.
func TestSnapshotGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		pageRows int
		name     string
		data     func() *snapshotData
		size     int
		sha256   string
	}{
		{32768, "test", testSnapshotData, 1443, "7b9931aaaddddd99501a6d71c25cf6acb4f738cc5407b81eca028e11647c18f4"},
		{32768, "multi", multiPageSnapshotData, 1777, "8b114fc35b91bbaabe8e98eae7d1e81a60140272ac8d0f7390c13e8652fa0c12"},
		{32768, "empty", emptySnapshotData, 164, "0bf6427b3754bf09e578ee7316bcffdabd5a561d94f42c1813e0a3f91e16ff18"},
		{2, "test", testSnapshotData, 1591, "f06df0a3f391bb55a2464c62a708c17829d7197ff088a7a8006948b98bcf4dee"},
		{2, "multi", multiPageSnapshotData, 2305, "3a9d63f51825b79cd6594b8855fa3afa0730254283caf438518ffa3f68f2c7e7"},
		{2, "empty", emptySnapshotData, 164, "0bf6427b3754bf09e578ee7316bcffdabd5a561d94f42c1813e0a3f91e16ff18"},
		{3, "test", testSnapshotData, 1443, "7b9931aaaddddd99501a6d71c25cf6acb4f738cc5407b81eca028e11647c18f4"},
		{3, "multi", multiPageSnapshotData, 2129, "9dde99037817e13ef785e96ac6da72a4d0fdd59783979274a7f3c0aa4b16c9da"},
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
		{"records", func(d *snapshotData) { d.records[0].AppName += "x" }, "section 2 wrote"},
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
	data.records[0].AppName += "x"
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
