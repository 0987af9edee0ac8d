package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

// Version-2 snapshots split every column into resident metadata (section 6)
// and on-disk value pages (section 7). openSnapshot, the one snapshot reader,
// validates the file's structure — header, records, blobs, column metadata,
// footer, exact EOF — without reading a single value page, and returns a
// snapshotFetcher over the pages. A paged store installs the fetcher and pages
// columns in on first touch through query's budgeted pool; a materialized
// store reads every column through it at once (loadColumns).
//
// A page frame is [ payloadLen u32 | crc u32 | payload ], CRC32-C over the
// payload alone, so each fetch verifies exactly the bytes it read. The page
// table (offset, payload length, row count per page) lives in the
// checksummed metadata section, which means a fetch can also detect frames
// that moved or changed length — a mismatch is corruption, not confusion.

// pageRows is the number of rows per column page. A variable, not a
// constant, so the torture suite can shrink pages and drive multi-page
// fetches on small corpora; production code must not change it after a
// snapshot has been written (readers are geometry-agnostic — the page table
// is authoritative — so mixed-geometry files still load).
var pageRows = 32768

// maxLazySection bounds a section length read from a file header before the
// payload is allocated — a corrupted length must not drive the allocation.
const maxLazySection = 1 << 31

// pageEntry locates one page frame inside the pages-section payload.
type pageEntry struct {
	off    uint64 // frame start, relative to the section payload
	length uint32 // frame payload length (excludes the 8-byte frame header)
	rows   uint32
}

// String-layout tags of a string column's metadata (pagedColumn.layout).
const (
	strLayoutPlain = 0
	strLayoutDict  = 1
)

// pagedColumn is one column's resident half: every structural field of the
// exported column except the value planes, plus the page table that locates
// them and the decoded-size estimate the page budget charges.
type pagedColumn struct {
	meta       query.ColumnData // value planes nil
	rows       int
	layout     uint8 // strLayoutPlain/strLayoutDict for strings, 0 otherwise
	valueBytes int64
	pages      []pageEntry
}

// columnRows is the row count of an exported column, by kind.
func columnRows(cd *query.ColumnData) int {
	switch cd.Kind {
	case query.KindInt:
		return len(cd.Ints)
	case query.KindFloat:
		return len(cd.Floats)
	case query.KindBool:
		return len(cd.Bools)
	case query.KindTime:
		return len(cd.TimeSec)
	case query.KindString:
		if cd.Dict != nil {
			return len(cd.Codes)
		}
		return len(cd.Strs)
	}
	return 0
}

// columnValueBytes estimates the decoded in-memory size of a column's value
// planes — the budget charge while the column is resident. Never zero: a
// zero charge would make a column invisible to the budget.
func columnValueBytes(cd *query.ColumnData, n int) int64 {
	var b int64
	switch cd.Kind {
	case query.KindInt, query.KindFloat:
		b = 8 * int64(n)
	case query.KindBool:
		b = int64(n)
	case query.KindTime:
		// A resident time row costs 16 bytes (planar seconds, nanoseconds
		// and offset); the charge stays at the 24 of a time.Time because
		// re-pricing would change what a given budget admits.
		b = 24 * int64(n)
	case query.KindString:
		if cd.Dict != nil {
			b = 4 * int64(n) // codes; the dictionary stays resident
		} else {
			b = 16 * int64(n) // string headers
			for _, s := range cd.Strs {
				b += int64(len(s))
			}
		}
	}
	if b <= 0 {
		b = 1
	}
	return b
}

// planPagedColumns splits exported columns into resident metadata and lays
// out the pages section (page frames, in column then row order) without
// encoding a page: a frame's size follows from the column alone, so the page
// table is exact before any page exists. It returns the section's length.
func planPagedColumns(cols []query.ColumnData) ([]pagedColumn, uint64) {
	metas := make([]pagedColumn, len(cols))
	var pagesLen uint64
	for i := range cols {
		cd := &cols[i]
		n := columnRows(cd)
		m := pagedColumn{rows: n, valueBytes: columnValueBytes(cd, n)}
		m.meta = query.ColumnData{
			Name: cd.Name, Kind: cd.Kind,
			NullWords: cd.NullWords, NullCount: cd.NullCount, HasNaN: cd.HasNaN,
			Dict: cd.Dict, SegmentRows: cd.SegmentRows, Zones: cd.Zones,
		}
		if cd.Kind == query.KindString && cd.Dict != nil {
			m.layout = strLayoutDict
		}
		for lo := 0; lo < n; lo += pageRows {
			hi := min(lo+pageRows, n)
			entry := pageEntry{off: pagesLen, length: pagePayloadLen(cd, lo, hi), rows: uint32(hi - lo)}
			pagesLen += 8 + uint64(entry.length)
			m.pages = append(m.pages, entry)
		}
		metas[i] = m
	}
	return metas, pagesLen
}

// pagePayloadLen is the exact length encodePage gives rows [lo,hi):
// pageLenFloor, plus the value bytes of plain strings.
func pagePayloadLen(cd *query.ColumnData, lo, hi int) uint32 {
	size := pageLenFloor(cd.Kind, cd.Dict != nil, uint64(hi-lo))
	if cd.Kind == query.KindString && cd.Dict == nil {
		for _, s := range cd.Strs[lo:hi] {
			size += uint64(len(s))
		}
	}
	return uint32(size)
}

// pageLenFloor is the length encodePage gives n rows, not counting a plain
// string column's value bytes: fixed widths per kind, 4-byte codes for
// dictionary strings, and count + lengths for plain ones.
func pageLenFloor(kind query.Kind, dict bool, n uint64) uint64 {
	switch kind {
	case query.KindInt, query.KindFloat:
		return 8 * n
	case query.KindBool:
		return n
	case query.KindTime:
		return 16 * n
	case query.KindString:
		if dict {
			return 4 * n
		}
		return 4 + 4*n
	}
	return 0
}

// pagesSection streams every planned page: each is encoded into one reused
// buffer, framed with its length and checksum, and written.
func pagesSection(cols []query.ColumnData, metas []pagedColumn, pagesLen uint64) section {
	return section{id: secColPages, size: pagesLen, emit: func(sw *sectionWriter) {
		var largest uint32
		for i := range metas {
			for _, pg := range metas[i].pages {
				largest = max(largest, pg.length)
			}
		}
		page := encoder{buf: make([]byte, 0, largest)}
		for i := range metas {
			lo := 0
			for _, pg := range metas[i].pages {
				hi := lo + int(pg.rows)
				page.buf = page.buf[:0]
				encodePage(&page, &cols[i], lo, hi)
				if len(page.buf) != int(pg.length) {
					sw.fail(fmt.Errorf("durable: column %q page at %d encoded %d bytes, planned %d",
						cols[i].Name, pg.off, len(page.buf), pg.length))
				}
				sw.u32(uint32(len(page.buf)))
				sw.u32(crc32.Checksum(page.buf, castagnoli))
				sw.raw(page.buf)
				lo = hi
			}
		}
	}}
}

// encodePage appends one page's slice of the value planes, rows [lo,hi).
// Time pages are planar within the page: seconds, then nanoseconds, then
// offsets.
func encodePage(e *encoder, cd *query.ColumnData, lo, hi int) {
	switch cd.Kind {
	case query.KindInt:
		for _, v := range cd.Ints[lo:hi] {
			e.i64(v)
		}
	case query.KindFloat:
		for _, v := range cd.Floats[lo:hi] {
			e.f64(v)
		}
	case query.KindBool:
		for _, v := range cd.Bools[lo:hi] {
			e.bool(v)
		}
	case query.KindTime:
		for _, v := range cd.TimeSec[lo:hi] {
			e.i64(v)
		}
		for _, v := range cd.TimeNsec[lo:hi] {
			e.i32(v)
		}
		for _, v := range cd.TimeOff[lo:hi] {
			e.i32(v)
		}
	case query.KindString:
		if cd.Dict != nil {
			for _, v := range cd.Codes[lo:hi] {
				e.u32(v)
			}
		} else {
			e.strsPlane(cd.Strs[lo:hi])
		}
	}
}

// decodePageInto decodes one page payload into rows [lo,hi) of the column's
// preallocated value planes. Only plain strings keep a reference to the
// payload — they alias it — so for every other layout the caller may reuse
// the payload's buffer once this returns.
func decodePageInto(cd *query.ColumnData, layout uint8, lo, hi int, payload []byte) error {
	d := &decoder{buf: payload}
	switch cd.Kind {
	case query.KindInt:
		d.i64sInto(cd.Ints[lo:hi])
	case query.KindFloat:
		d.f64sInto(cd.Floats[lo:hi])
	case query.KindBool:
		d.boolsInto(cd.Bools[lo:hi])
	case query.KindTime:
		d.i64sInto(cd.TimeSec[lo:hi])
		d.i32sInto(cd.TimeNsec[lo:hi])
		d.i32sInto(cd.TimeOff[lo:hi])
	case query.KindString:
		if layout == strLayoutDict {
			d.u32sInto(cd.Codes[lo:hi])
		} else {
			if cnt := d.count(4); d.err == nil && cnt != hi-lo {
				d.fail("page holds %d strings, want %d", cnt, hi-lo)
			}
			d.strsPlaneInto(cd.Strs[lo:hi])
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("page has %d trailing bytes", d.remaining())
	}
	return nil
}

// newColumnData clones the resident metadata and takes the value planes for
// the page decoder to fill from mem: memory a page pool lends, or fresh
// zeroed slices when mem is nil. The decoder writes every row, so a lent
// plane's old contents never show. The metadata slices (null bitmap,
// dictionary, zones) are shared, not copied — they are immutable.
func (m *pagedColumn) newColumnData(mem *query.PageMemory) query.ColumnData {
	cd := m.meta
	n := m.rows
	switch cd.Kind {
	case query.KindInt:
		cd.Ints = mem.Int64s(n)
	case query.KindFloat:
		cd.Floats = mem.Float64s(n)
	case query.KindBool:
		cd.Bools = mem.Bools(n)
	case query.KindTime:
		cd.TimeSec = mem.Int64s(n)
		cd.TimeNsec = mem.Int32s(n)
		cd.TimeOff = mem.Int32s(n)
	case query.KindString:
		if m.layout == strLayoutDict {
			cd.Codes = mem.Uint32s(n)
		} else {
			cd.Strs = mem.Strings(n)
		}
	}
	return cd
}

// colMetaSection streams each column's resident metadata and page table, in
// the order decodeColMetaSection reads them.
func colMetaSection(metas []pagedColumn) section {
	size := uint64(4)
	for i := range metas {
		m := &metas[i]
		cd := &m.meta
		size += 8 + uint64(len(cd.Name)+len(cd.Kind)) // name, kind
		size += 4 + 1                                 // rows, layout
		size += 4 + 8*uint64(len(cd.NullWords)) + 8 + 1
		if m.layout == strLayoutDict {
			size += 4 + 4*uint64(len(cd.Dict))
			for _, s := range cd.Dict {
				size += uint64(len(s))
			}
		}
		size += 4 + 4 + 16*uint64(len(cd.Zones)) // segment rows, zones
		size++                                   // posting-list flag
		size += 8 + 4 + 16*uint64(len(m.pages))  // value bytes, page table
	}
	return section{id: secColMeta, size: size, emit: func(sw *sectionWriter) {
		sw.u32(uint32(len(metas)))
		for i := range metas {
			m := &metas[i]
			cd := &m.meta
			sw.str(cd.Name)
			sw.str(string(cd.Kind))
			sw.u32(uint32(m.rows))
			sw.u8(m.layout)
			sw.u32(uint32(len(cd.NullWords)))
			for _, w := range cd.NullWords {
				sw.u64(w)
				sw.spill()
			}
			sw.u64(uint64(cd.NullCount))
			sw.bool(cd.HasNaN)
			if m.layout == strLayoutDict {
				sw.u32(uint32(len(cd.Dict)))
				for _, s := range cd.Dict {
					sw.u32(uint32(len(s)))
					sw.spill()
				}
				for _, s := range cd.Dict {
					sw.buf = append(sw.buf, s...)
					sw.spill()
				}
			}
			sw.u32(uint32(cd.SegmentRows))
			sw.u32(uint32(len(cd.Zones)))
			for _, z := range cd.Zones {
				sw.i32(z.Rows)
				sw.i32(z.Nulls)
				sw.i32(z.MinRow)
				sw.i32(z.MaxRow)
				sw.spill()
			}
			// No posting lists: readers build dictionary bitmaps from codes.
			sw.bool(false)
			sw.u64(uint64(m.valueBytes))
			sw.u32(uint32(len(m.pages)))
			for _, p := range m.pages {
				sw.u64(p.off)
				sw.u32(p.length)
				sw.u32(p.rows)
				sw.spill()
			}
		}
	}}
}

// decodeColMetaSection decodes and structurally validates the column
// metadata, including every page-table entry against the pages-section
// length — a fetch must never be pointed outside the section — and its
// payload length against its rows. Value-level validation (bitmap
// population, dictionary order, zone invariants) stays where it always
// was: query's import, run on every fetched column.
func decodeColMetaSection(payload []byte, numColumns int, pagesLen uint64) ([]pagedColumn, error) {
	d := &decoder{buf: payload}
	if n := d.count(32); d.err == nil && n != numColumns {
		d.fail("column count %d disagrees with header %d", n, numColumns)
	}
	metas := make([]pagedColumn, 0, numColumns)
	for i := 0; i < numColumns && d.err == nil; i++ {
		var m pagedColumn
		cd := &m.meta
		cd.Name = d.str()
		cd.Kind = query.Kind(d.str())
		m.rows = int(d.u32())
		m.layout = d.u8()
		cd.NullWords = d.u64s(d.count(8))
		cd.NullCount = int(d.u64())
		cd.HasNaN = d.bool()
		switch cd.Kind {
		case query.KindInt, query.KindFloat, query.KindBool, query.KindTime:
			if m.layout != 0 {
				d.fail("column %q: layout %d on kind %q", cd.Name, m.layout, cd.Kind)
			}
		case query.KindString:
			switch m.layout {
			case strLayoutDict:
				cd.Dict = d.strsPlane(d.count(4))
				if cd.Dict == nil && d.err == nil {
					cd.Dict = []string{}
				}
			case strLayoutPlain:
			default:
				d.fail("column %q: unknown string layout %d", cd.Name, m.layout)
			}
		default:
			d.fail("unknown column kind %q", cd.Kind)
		}
		cd.SegmentRows = int(d.u32())
		nz := d.count(16)
		cd.Zones = make([]query.ZoneData, 0, nz)
		for z := 0; z < nz && d.err == nil; z++ {
			cd.Zones = append(cd.Zones, query.ZoneData{
				Rows: d.i32(), Nulls: d.i32(), MinRow: d.i32(), MaxRow: d.i32(),
			})
		}
		if len(cd.Zones) == 0 {
			cd.Zones = nil
		}
		if d.bool() {
			// Files from earlier builds list each dictionary code's rows
			// here. They are skipped; the section's CRC still covers them.
			np := d.count(4)
			for p := 0; p < np && d.err == nil; p++ {
				d.take(4 * d.count(4))
			}
		}
		m.valueBytes = int64(d.u64())
		if d.err == nil && m.valueBytes <= 0 {
			d.fail("column %q: value-byte estimate %d", cd.Name, m.valueBytes)
		}
		npages := d.count(16)
		m.pages = make([]pageEntry, 0, npages)
		rowSum := uint64(0)
		prevEnd := uint64(0)
		for p := 0; p < npages && d.err == nil; p++ {
			entry := pageEntry{off: d.u64(), length: d.u32(), rows: d.u32()}
			if d.err != nil {
				break
			}
			end := entry.off + 8 + uint64(entry.length)
			if entry.off < prevEnd || end < entry.off || end > pagesLen {
				d.fail("column %q: page %d frame [%d,%d) outside pages section of %d bytes",
					cd.Name, p, entry.off, end, pagesLen)
				break
			}
			if entry.rows == 0 {
				d.fail("column %q: page %d holds no rows", cd.Name, p)
				break
			}
			// A page's length must be what its rows imply, so the planes the
			// column's rows size before any page is read are bounded by the
			// bytes its pages hold.
			floor := pageLenFloor(cd.Kind, m.layout == strLayoutDict, uint64(entry.rows))
			plain := cd.Kind == query.KindString && m.layout == strLayoutPlain
			if length := uint64(entry.length); length < floor || (!plain && length != floor) {
				d.fail("column %q: page %d holds %d bytes for %d rows", cd.Name, p, entry.length, entry.rows)
				break
			}
			prevEnd = end
			rowSum += uint64(entry.rows)
			m.pages = append(m.pages, entry)
		}
		if d.err == nil && rowSum != uint64(m.rows) {
			d.fail("column %q: page table covers %d rows, column has %d", cd.Name, rowSum, m.rows)
		}
		metas = append(metas, m)
	}
	if d.err == nil && d.remaining() != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, corrupt("column meta: %v", d.err)
	}
	return metas, nil
}

// verifyPageFrame checks one page frame's length echo and payload checksum
// and returns the payload.
func verifyPageFrame(frame []byte, wantLen uint32) ([]byte, error) {
	if binary.LittleEndian.Uint32(frame) != wantLen {
		return nil, fmt.Errorf("frame length %d disagrees with page table %d",
			binary.LittleEndian.Uint32(frame), wantLen)
	}
	payload := frame[8:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, errors.New("page checksum mismatch")
	}
	return payload, nil
}

// lazySnapshot is what openSnapshot reads and validates of a snapshot:
// everything recovery needs to rebuild the ingestor, plus a fetcher over the
// column value planes, still on disk. fetcher is nil when the snapshot holds
// no columns.
type lazySnapshot struct {
	cursor    uint64
	crawlTime time.Time
	records   []appmeta.Record
	blobs     map[appmeta.Key][]byte
	fetcher   *snapshotFetcher
}

// readSectionAt reads and checksum-verifies one expected section frame at
// off, returning its payload and the offset just past the frame.
func readSectionAt(f File, off int64, wantID uint32) ([]byte, int64, error) {
	var hdr [12]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, fmt.Errorf("durable: read section frame: %w", err)
	}
	id := binary.LittleEndian.Uint32(hdr[:])
	if id != wantID {
		return nil, 0, corrupt("section %d where %d expected", id, wantID)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > maxLazySection {
		return nil, 0, corrupt("section %d length %d implausible", id, n)
	}
	// The frame's last byte must exist before its length sizes the read
	// buffer, so a corrupted length fails on the file's size instead of
	// allocating up to maxLazySection.
	var last [1]byte
	if _, err := f.ReadAt(last[:], off+12+int64(n)+3); errors.Is(err, io.EOF) {
		return nil, 0, corrupt("section %d length %d runs past the end of the file", id, n)
	} else if err != nil {
		return nil, 0, fmt.Errorf("durable: read section %d: %w", id, err)
	}
	body := make([]byte, n+4)
	if _, err := f.ReadAt(body, off+12); err != nil {
		return nil, 0, fmt.Errorf("durable: read section %d: %w", id, err)
	}
	payload := body[:n]
	crc := binary.LittleEndian.Uint32(body[n:])
	if err := checkSection(id, payload, crc); err != nil {
		return nil, 0, err
	}
	return payload, off + 12 + int64(n) + 4, nil
}

// openSnapshot validates a snapshot's structure — magic, header, records,
// blobs, column metadata, footer frame, exact EOF — while leaving the pages
// section untouched on disk, and returns the decoded sections plus a fetcher
// over the pages. Any version but 2 returns ErrSnapshotVersion.
func openSnapshot(fsys FS, path string) (*lazySnapshot, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: open snapshot: %w", err)
	}
	defer f.Close()

	magic := make([]byte, len(snapMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		return nil, corrupt("bad magic: %v", err)
	}
	if string(magic) != snapMagic {
		if string(magic[:len(snapMagicPrefix)]) == snapMagicPrefix {
			return nil, fmt.Errorf("%w: magic %q, this build reads %q", ErrSnapshotVersion, magic, snapMagic)
		}
		return nil, corrupt("bad magic")
	}
	off := int64(len(snapMagic))

	hdrPayload, off, err := readSectionAt(f, off, secHeader)
	if err != nil {
		return nil, err
	}
	hd := &decoder{buf: hdrPayload}
	version := hd.u32()
	lz := &lazySnapshot{cursor: hd.u64(), crawlTime: hd.timeVal()}
	numRecords := int(hd.u32())
	numBlobs := int(hd.u32())
	numColumns := int(hd.u32())
	if hd.err != nil {
		return nil, corrupt("header: %v", hd.err)
	}
	if version != snapVersionPaged {
		return nil, fmt.Errorf("%w: version %d, this build reads %d",
			ErrSnapshotVersion, version, snapVersionPaged)
	}

	recPayload, off, err := readSectionAt(f, off, secRecords)
	if err != nil {
		return nil, err
	}
	if lz.records, err = decodeRecordsSection(recPayload, numRecords); err != nil {
		return nil, corrupt("records: %v", err)
	}
	blobPayload, off, err := readSectionAt(f, off, secBlobs)
	if err != nil {
		return nil, err
	}
	if lz.blobs, err = decodeBlobsSection(blobPayload, numBlobs); err != nil {
		return nil, err
	}
	metaPayload, off, err := readSectionAt(f, off, secColMeta)
	if err != nil {
		return nil, err
	}

	// The pages section: read only its 12-byte frame header, record where the
	// payload starts, and skip past it. Its bytes are covered page by page.
	var hdr [12]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("durable: read pages frame: %w", err)
	}
	if id := binary.LittleEndian.Uint32(hdr[:]); id != secColPages {
		return nil, corrupt("section %d where %d expected", id, secColPages)
	}
	pagesLen := binary.LittleEndian.Uint64(hdr[4:])
	if pagesLen > maxLazySection {
		return nil, corrupt("section %d length %d implausible", secColPages, pagesLen)
	}
	pagesOff := off + 12
	off = pagesOff + int64(pagesLen) + 4 // payload + section crc (unread)

	metas, err := decodeColMetaSection(metaPayload, numColumns, pagesLen)
	if err != nil {
		return nil, err
	}

	footer, off, err := readSectionAt(f, off, secFooter)
	if err != nil {
		return nil, err
	}
	if string(footer) != snapFooter {
		return nil, corrupt("bad footer")
	}
	// The footer must be the last byte of the file — trailing data means the
	// write protocol was violated and nothing about the file is trusted.
	var probe [1]byte
	if n, err := f.ReadAt(probe[:], off); err != io.EOF || n != 0 {
		return nil, corrupt("trailing bytes after footer")
	}

	if numColumns > 0 {
		sf := &snapshotFetcher{
			fsys:     fsys,
			path:     path,
			pagesOff: pagesOff,
			pagesLen: pagesLen,
			order:    make([]string, 0, len(metas)),
			byName:   make(map[string]*pagedColumn, len(metas)),
		}
		for i := range metas {
			m := &metas[i]
			if _, dup := sf.byName[m.meta.Name]; dup {
				return nil, corrupt("duplicate column %q", m.meta.Name)
			}
			sf.order = append(sf.order, m.meta.Name)
			sf.byName[m.meta.Name] = m
		}
		lz.fetcher = sf
	}
	return lz, nil
}

// snapshotFetcher implements query.ColumnFetcher over a version-2 snapshot:
// each fetch opens the file read-only and reads one column (readColumn) into
// the memory the page pool lends the fetch (query.LentPageMemory); a plain
// string column's values alias the read buffer. Safe for concurrent use —
// every fetch owns its handle and its loan.
type snapshotFetcher struct {
	fsys     FS
	path     string
	pagesOff int64  // file offset of the pages section's payload
	pagesLen uint64 // its length; the section checksum follows it
	order    []string
	byName   map[string]*pagedColumn
}

func (sf *snapshotFetcher) Columns() []string {
	return append([]string(nil), sf.order...)
}

func (sf *snapshotFetcher) ColumnBytes(name string) int64 {
	if m := sf.byName[name]; m != nil {
		return m.valueBytes
	}
	return 0
}

// FetchColumn reads one column's pages. Checksum or structural failures wrap
// query.ErrPageCorrupt (the pool quarantines the column); every other error
// — open failures, short or failed reads — is transient and retried by the
// pool.
func (sf *snapshotFetcher) FetchColumn(ctx context.Context, name string) (*query.ColumnData, error) {
	m := sf.byName[name]
	if m == nil {
		return nil, fmt.Errorf("durable: snapshot has no column %q", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := sf.fsys.OpenFile(sf.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: open snapshot for paging: %w", err)
	}
	defer f.Close()
	cd, _, err := sf.readColumn(f, m, query.LentPageMemory(ctx), query.ErrPageCorrupt)
	return cd, err
}

// readColumn reads one column's page frames from f with one positioned read
// over their span, verifies every frame's length echo and checksum, and
// decodes the planes into memory from mem (fresh slices when mem is nil),
// sharing the resident metadata. It returns the column and the span it read.
// A frame that fails verification or decoding is an error wrapping bad.
func (sf *snapshotFetcher) readColumn(f File, m *pagedColumn, mem *query.PageMemory, bad error) (*query.ColumnData, []byte, error) {
	cd := m.newColumnData(mem)
	if len(m.pages) == 0 {
		return &cd, nil, nil
	}
	// The page table orders a column's frames by offset without overlap
	// (decodeColMetaSection), so one read covers them all.
	start := m.pages[0].off
	last := m.pages[len(m.pages)-1]
	span := mem.Buffer(int(last.off + 8 + uint64(last.length) - start))
	if _, err := f.ReadAt(span, sf.pagesOff+int64(start)); err != nil {
		return nil, nil, fmt.Errorf("durable: read column %q pages at %d: %w", m.meta.Name, start, err)
	}
	lo := 0
	for _, pg := range m.pages {
		rel := pg.off - start
		hi := lo + int(pg.rows)
		payload, err := verifyPageFrame(span[rel:rel+8+uint64(pg.length)], pg.length)
		if err == nil {
			err = decodePageInto(&cd, m.layout, lo, hi, payload)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: column %q page at %d: %v", bad, m.meta.Name, pg.off, err)
		}
		lo = hi
	}
	return &cd, span, nil
}

// loadColumns reads and decodes every column into fresh memory through one
// handle, in page-table order: the full load of a materialized store. It
// checks every checksum the file carries: besides each frame's, the pages
// section's own, folded over the column spans as they are read. So the spans
// must tile the section, and the running CRC32-C must equal its trailer.
// Any mismatch is ErrSnapshotCorrupt.
func (sf *snapshotFetcher) loadColumns() ([]query.ColumnData, error) {
	f, err := sf.fsys.OpenFile(sf.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: open snapshot: %w", err)
	}
	defer f.Close()
	cols := make([]query.ColumnData, 0, len(sf.order))
	var crc uint32
	var end uint64 // where the spans read so far end
	for _, name := range sf.order {
		m := sf.byName[name]
		if len(m.pages) > 0 && m.pages[0].off != end {
			return nil, corrupt("column %q pages start at %d; the columns before it end at %d", name, m.pages[0].off, end)
		}
		cd, span, err := sf.readColumn(f, m, nil, ErrSnapshotCorrupt)
		if err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, castagnoli, span)
		end += uint64(len(span))
		cols = append(cols, *cd)
	}
	if end != sf.pagesLen {
		return nil, corrupt("column pages end at %d in a pages section of %d bytes", end, sf.pagesLen)
	}
	var trailer [4]byte
	if _, err := f.ReadAt(trailer[:], sf.pagesOff+int64(sf.pagesLen)); err != nil {
		return nil, fmt.Errorf("durable: read pages checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return nil, corrupt("section %d checksum mismatch", secColPages)
	}
	return cols, nil
}
