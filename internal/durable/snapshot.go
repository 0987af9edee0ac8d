package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

// Snapshot file layout (format version in the header section):
//
//	"MSNAP001"
//	sections: repeated [ id u32 | len u64 | payload | crc u32 ]
//	  1 header:  version u32, cursor u64, crawlTime, record/blob/column counts
//	  2 records: the dataset's metadata records, in dataset order, laid out
//	             struct-of-arrays (one plane per field; see below)
//	  3 blobs:   the APK bytes of every ingested key that supplied one
//	  version 1 continues:
//	  4 columns: the sealed column store (typed slices, null bitmaps,
//	             dictionaries, bitmap posting lists, zone maps)
//	  version 2 continues:
//	  6 colmeta: per column, everything but the value planes (null bitmap,
//	             dictionary, zone maps, posting lists) plus the page table
//	             locating the planes inside section 7
//	  7 pages:   per-page frames [ len u32 | crc u32 | payload ] of column
//	             value planes — individually checksummed so a lazy reader can
//	             fetch and verify one page without touching the rest
//	  both end with:
//	  5 footer:  "MSNAPEND"
//
// Every section payload carries its own CRC32-C; the footer proves the file
// was written to completion. Snapshots are streamed section by section to a
// temp name (every length is known before its payload, so nothing is
// buffered whole), fsynced, atomically renamed to snap-<cursor>.snap and the
// directory fsynced, so a crash mid-write leaves at worst a stale temp file,
// which the next Open deletes — never a half-visible snapshot. Any decode failure anywhere makes the whole file invalid; the
// store then quarantines it and falls back. The single exception is a header
// announcing a version newer than this build understands: the file is
// refused wholesale (ErrSnapshotVersion) but left in place for the newer
// binary that wrote it.
//
// This build writes version 2 and reads both. Version 2's lazy reader and
// the page codec live in paged.go.

const (
	snapMagic       = "MSNAP001"
	snapMagicPrefix = "MSNAP"
	snapFooter      = "MSNAPEND"
	snapVersion     = 1
	// snapVersionPaged is the current write format: column value planes live
	// in a per-page-checksummed pages section behind a page table, so a
	// reader can validate the file and serve queries without materializing
	// the columns (see paged.go).
	snapVersionPaged = 2
	snapSuffix       = ".snap"
	corruptSuffix    = ".corrupt"
	// tmpSuffix marks a snapshot still being written; Open deletes any it
	// finds, since only a crash mid-write leaves one behind.
	tmpSuffix = ".tmp"
)

const (
	secHeader  = 1
	secRecords = 2
	secBlobs   = 3
	secColumns = 4
	secFooter  = 5
	// Version-2 sections: column metadata (everything but the value planes,
	// plus the page table) and the page frames themselves.
	secColMeta  = 6
	secColPages = 7
)

// The records section is laid out struct-of-arrays: one plane per Record
// field, fixed-width planes first, then each string field as a length plane
// followed by its concatenated bytes. A row-major walk of 80k variable-length
// records costs a bounds-checked read per field per record and dominated
// recovery time; the planar layout decodes each field with one bounds check
// and materializes every string as a substring of a single section copy.

// recordFixedBytes is one record's share of the records section outside its
// string bytes: 66 bytes of fixed-width planes plus a u32 length per string
// plane.
const recordFixedBytes = 66 + 4*7

func recordsSection(records []appmeta.Record) section {
	size := 4 + uint64(recordFixedBytes*len(records))
	for _, get := range recordStringFields {
		for i := range records {
			size += uint64(len(*get(&records[i])))
		}
	}
	return section{id: secRecords, size: size, emit: func(sw *sectionWriter) {
		sw.u32(uint32(len(records)))
		for i := range records {
			sw.i64(records[i].VersionCode)
			sw.spill()
		}
		for i := range records {
			sw.i64(records[i].Downloads)
			sw.spill()
		}
		for i := range records {
			sw.f64(records[i].Rating)
			sw.spill()
		}
		for _, get := range []func(*appmeta.Record) time.Time{
			func(r *appmeta.Record) time.Time { return r.ReleaseDate },
			func(r *appmeta.Record) time.Time { return r.UpdateDate },
		} {
			for i := range records {
				sw.i64(get(&records[i]).Unix())
				sw.spill()
			}
			for i := range records {
				sw.i32(int32(get(&records[i]).Nanosecond()))
				sw.spill()
			}
			for i := range records {
				_, off := get(&records[i]).Zone()
				sw.i32(int32(off))
				sw.spill()
			}
		}
		for i := range records {
			sw.i64(records[i].APKSize)
			sw.spill()
		}
		for i := range records {
			sw.bool(records[i].HasAds)
			sw.spill()
		}
		for i := range records {
			sw.bool(records[i].HasIAP)
			sw.spill()
		}
		for _, get := range recordStringFields {
			for i := range records {
				sw.u32(uint32(len(*get(&records[i]))))
				sw.spill()
			}
			for i := range records {
				sw.buf = append(sw.buf, *get(&records[i])...)
				sw.spill()
			}
		}
	}}
}

// recordStringFields lists the Record string fields in plane order.
var recordStringFields = []func(*appmeta.Record) *string{
	func(r *appmeta.Record) *string { return &r.Market },
	func(r *appmeta.Record) *string { return &r.Package },
	func(r *appmeta.Record) *string { return &r.AppName },
	func(r *appmeta.Record) *string { return &r.Category },
	func(r *appmeta.Record) *string { return &r.DeveloperName },
	func(r *appmeta.Record) *string { return &r.VersionName },
	func(r *appmeta.Record) *string { return &r.Description },
}

func decodeRecordsSection(payload []byte, numRecords int) ([]appmeta.Record, error) {
	d := &decoder{buf: payload}
	// Every record occupies at least its fixed-width plane bytes (66) plus a
	// length per string plane.
	if n := d.count(64); d.err == nil && n != numRecords {
		d.fail("record count %d disagrees with header %d", n, numRecords)
	}
	n := numRecords
	if d.err != nil {
		return nil, d.err
	}
	versionCode := d.i64s(n)
	downloads := d.i64s(n)
	rating := d.f64s(n)
	relSec, relNsec, relOff := d.i64s(n), d.i32s(n), d.i32s(n)
	updSec, updNsec, updOff := d.i64s(n), d.i32s(n), d.i32s(n)
	apkSize := d.i64s(n)
	hasAds := d.bools(n)
	hasIAP := d.bools(n)
	strs := make([][]string, len(recordStringFields))
	for f := range strs {
		strs[f] = d.strsPlane(n)
	}
	if d.err == nil && d.remaining() != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	records := make([]appmeta.Record, n)
	for i := range records {
		rel, err := planeTime(relSec[i], relNsec[i], relOff[i])
		if err != nil {
			return nil, err
		}
		upd, err := planeTime(updSec[i], updNsec[i], updOff[i])
		if err != nil {
			return nil, err
		}
		records[i] = appmeta.Record{
			Market:        strs[0][i],
			Package:       strs[1][i],
			AppName:       strs[2][i],
			Category:      strs[3][i],
			DeveloperName: strs[4][i],
			VersionCode:   versionCode[i],
			VersionName:   strs[5][i],
			Description:   strs[6][i],
			Downloads:     downloads[i],
			Rating:        rating[i],
			ReleaseDate:   rel,
			UpdateDate:    upd,
			APKSize:       apkSize[i],
			HasAds:        hasAds[i],
			HasIAP:        hasIAP[i],
		}
	}
	return records, nil
}

// planeTime rebuilds one instant from its planes, mirroring decoder.timeVal.
func planeTime(sec int64, nsec, off int32) (time.Time, error) {
	if nsec < 0 || nsec >= 1e9 {
		return time.Time{}, fmt.Errorf("durable: time nanoseconds %d out of range", nsec)
	}
	t := time.Unix(sec, int64(nsec)).UTC()
	if off != 0 {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t, nil
}

// ErrSnapshotCorrupt wraps every structural failure loading a snapshot.
var ErrSnapshotCorrupt = errors.New("durable: snapshot corrupt")

// ErrSnapshotVersion marks a snapshot written by a newer format version than
// this build reads. The file is not corrupt — a newer binary can load it — so
// recovery skips it without quarantining and falls back to an older
// generation or the WAL. Nothing of the file is adopted.
var ErrSnapshotVersion = errors.New("durable: snapshot from a newer format version")

// snapshotData is one decoded snapshot: everything recovery needs to rebuild
// the ingestor (records + blobs + cursor + crawl time) plus the column store
// that spares the engine its re-extraction.
type snapshotData struct {
	cursor    uint64
	crawlTime time.Time
	records   []appmeta.Record
	blobs     map[appmeta.Key][]byte
	columns   []query.ColumnData
}

func snapshotName(cursor uint64) string { return fmt.Sprintf("snap-%016x%s", cursor, snapSuffix) }

// parseSnapshotName extracts the cursor from a snap-<cursor>.snap name.
func parseSnapshotName(name string) (uint64, bool) {
	var cursor uint64
	var suffix string
	n, err := fmt.Sscanf(name, "snap-%016x%s", &cursor, &suffix)
	if err != nil || n != 2 || suffix != snapSuffix || name != snapshotName(cursor) {
		return 0, false
	}
	return cursor, true
}

// headerSectionSize is the header payload: version, cursor, crawl time and
// the record, blob and column counts.
const headerSectionSize = 4 + 8 + 16 + 3*4

func headerSection(data *snapshotData, version uint32) section {
	return section{id: secHeader, size: headerSectionSize, emit: func(sw *sectionWriter) {
		sw.u32(version)
		sw.u64(data.cursor)
		sw.timeVal(data.crawlTime)
		sw.u32(uint32(len(data.records)))
		sw.u32(uint32(len(data.blobs)))
		sw.u32(uint32(len(data.columns)))
	}}
}

// blobsSection lays the blobs out in (market, package) order, so a snapshot's
// bytes do not depend on the order its keys were ingested in.
func blobsSection(blobs map[appmeta.Key][]byte) section {
	keys := make([]appmeta.Key, 0, len(blobs))
	size := uint64(4)
	for k, b := range blobs {
		keys = append(keys, k)
		size += 12 + uint64(len(k.Market)+len(k.Package)+len(b))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Market != keys[j].Market {
			return keys[i].Market < keys[j].Market
		}
		return keys[i].Package < keys[j].Package
	})
	return section{id: secBlobs, size: size, emit: func(sw *sectionWriter) {
		sw.u32(uint32(len(keys)))
		for _, k := range keys {
			sw.str(k.Market)
			sw.str(k.Package)
			sw.u32(uint32(len(blobs[k])))
			sw.raw(blobs[k])
		}
	}}
}

var footerSection = section{id: secFooter, size: uint64(len(snapFooter)), emit: func(sw *sectionWriter) {
	sw.buf = append(sw.buf, snapFooter...)
}}

// snapshotSections lays out the current write format (version 2, paged
// columns). Every length is known before its section's first byte: the page
// table is planned from the columns alone, so the column metadata precedes
// the pages it locates without any page having been encoded.
func snapshotSections(data *snapshotData) []section {
	metas, pagesLen := planPagedColumns(data.columns)
	return []section{
		headerSection(data, snapVersionPaged),
		recordsSection(data.records),
		blobsSection(data.blobs),
		colMetaSection(metas),
		pagesSection(data.columns, metas, pagesLen),
		footerSection,
	}
}

// snapBufSize is the one write buffer a snapshot streams through: the file
// reaches the filesystem in writes of this size, and the writer never holds
// more of it than that (plus the one column page it is framing).
const snapBufSize = 1 << 20

// spillSize is how many encoded bytes a section writer gathers before it
// checksums them and passes them to the write buffer.
const spillSize = 32 << 10

// section is one snapshot section ready to stream: its id, its exact payload
// length, and the function that emits that payload.
type section struct {
	id   uint32
	size uint64
	emit func(*sectionWriter)
}

// sectionWriter streams sections through a bufio.Writer. Payload bytes are
// encoded into the embedded scratch encoder, and emitters call spill once per
// row so the scratch stays small; bytes leave the scratch checksummed into the
// open section's CRC32-C and counted against its declared length.
type sectionWriter struct {
	encoder
	w   *bufio.Writer
	crc uint32
	n   uint64
	err error
}

// spill passes the scratch on once it holds spillSize bytes.
func (sw *sectionWriter) spill() {
	if len(sw.buf) >= spillSize {
		sw.pass()
	}
}

// pass moves the scratch into the open section.
func (sw *sectionWriter) pass() {
	sw.put(sw.buf)
	sw.buf = sw.buf[:0]
}

// raw writes payload bytes straight to the buffer, not through the scratch —
// for blobs and pages, which are already contiguous and may be large.
func (sw *sectionWriter) raw(p []byte) {
	sw.pass()
	sw.put(p)
}

// put checksums and counts p as payload of the open section, and writes it.
func (sw *sectionWriter) put(p []byte) {
	sw.crc = crc32.Update(sw.crc, castagnoli, p)
	sw.n += uint64(len(p))
	sw.write(p)
}

func (sw *sectionWriter) write(p []byte) {
	if _, err := sw.w.Write(p); err != nil {
		sw.fail(err)
	}
}

func (sw *sectionWriter) fail(err error) {
	if sw.err == nil {
		sw.err = err
	}
}

// section frames one section — [ id | len | payload | crc ] — writing the
// declared length before the payload exists. A payload of any other length
// fails the write: the frame would not parse.
func (sw *sectionWriter) section(s section) {
	if sw.err != nil {
		return
	}
	var frame [12]byte
	binary.LittleEndian.PutUint32(frame[:], s.id)
	binary.LittleEndian.PutUint64(frame[4:], s.size)
	sw.write(frame[:])
	sw.crc, sw.n = 0, 0
	s.emit(sw)
	sw.pass()
	if sw.n != s.size {
		sw.fail(fmt.Errorf("durable: snapshot section %d wrote %d bytes, declared %d", s.id, sw.n, s.size))
	}
	sw.write(binary.LittleEndian.AppendUint32(frame[:0], sw.crc))
}

// writeSections streams a snapshot file — the magic, then every section — to
// w through one snapBufSize buffer.
func writeSections(w io.Writer, secs []section) error {
	sw := &sectionWriter{encoder: encoder{buf: make([]byte, 0, 2*spillSize)}, w: bufio.NewWriterSize(w, snapBufSize)}
	sw.write([]byte(snapMagic))
	for _, s := range secs {
		sw.section(s)
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// nextSection parses one section frame without verifying its checksum; the
// caller runs checkSection, possibly on another goroutine — the payload
// sections are megabytes each and their checksums can verify concurrently.
func nextSection(buf []byte, off int) (id uint32, payload []byte, crc uint32, next int, err error) {
	if len(buf)-off < 12 {
		return 0, nil, 0, 0, corrupt("truncated section frame at offset %d", off)
	}
	id = binary.LittleEndian.Uint32(buf[off:])
	n := binary.LittleEndian.Uint64(buf[off+4:])
	body := off + 12
	if rem := len(buf) - body; rem < 4 || n > uint64(rem-4) {
		return 0, nil, 0, 0, corrupt("section %d length %d exceeds file", id, n)
	}
	payload = buf[body : body+int(n)]
	crc = binary.LittleEndian.Uint32(buf[body+int(n):])
	return id, payload, crc, body + int(n) + 4, nil
}

func checkSection(id uint32, payload []byte, crc uint32) error {
	if crc32.Checksum(payload, castagnoli) != crc {
		return corrupt("section %d checksum mismatch", id)
	}
	return nil
}

func decodeSnapshot(buf []byte) (*snapshotData, error) {
	data, wait, err := decodeSnapshotOverlap(buf)
	if err != nil {
		return nil, err
	}
	if err := wait(); err != nil {
		return nil, err
	}
	return data, nil
}

// decodeSnapshotOverlap verifies every section frame and decodes the header,
// records and blobs sections before returning; the columns section — the
// largest — keeps decoding on a background goroutine, and wait blocks until
// it finishes and reports its error. Recovery exploits the split: rebuilding
// the ingestor needs only records and blobs, so it runs concurrently with the
// column decode instead of after it. data.columns must not be touched before
// wait returns nil.
func decodeSnapshotOverlap(buf []byte) (*snapshotData, func() error, error) {
	if len(buf) < len(snapMagic) {
		return nil, nil, corrupt("bad magic")
	}
	if string(buf[:len(snapMagic)]) != snapMagic {
		if string(buf[:len(snapMagicPrefix)]) == snapMagicPrefix {
			return nil, nil, fmt.Errorf("%w: magic %q, this build reads %q",
				ErrSnapshotVersion, buf[:len(snapMagic)], snapMagic)
		}
		return nil, nil, corrupt("bad magic")
	}
	// The header section comes first and names the version, which decides
	// what sections must follow it.
	gotID, hdrPayload, hdrCRC, off, err := nextSection(buf, len(snapMagic))
	if err != nil {
		return nil, nil, err
	}
	if gotID != secHeader {
		return nil, nil, corrupt("section %d where %d expected", gotID, secHeader)
	}
	if err := checkSection(secHeader, hdrPayload, hdrCRC); err != nil {
		return nil, nil, err
	}
	hd := &decoder{buf: hdrPayload}
	version := hd.u32()
	data := &snapshotData{cursor: hd.u64(), crawlTime: hd.timeVal()}
	numRecords := int(hd.u32())
	numBlobs := int(hd.u32())
	numColumns := int(hd.u32())
	if hd.err != nil {
		return nil, nil, corrupt("header: %v", hd.err)
	}
	var colSections []uint32
	switch version {
	case snapVersion:
		colSections = []uint32{secColumns}
	case snapVersionPaged:
		colSections = []uint32{secColMeta, secColPages}
	default:
		return nil, nil, fmt.Errorf("%w: version %d, this build reads up to %d",
			ErrSnapshotVersion, version, snapVersionPaged)
	}
	want := append([]uint32{secRecords, secBlobs}, colSections...)
	want = append(want, secFooter)
	payloads := make(map[uint32][]byte, len(want))
	crcs := make(map[uint32]uint32, len(want))
	for _, id := range want {
		gotID, payload, crc, next, err := nextSection(buf, off)
		if err != nil {
			return nil, nil, err
		}
		if gotID != id {
			return nil, nil, corrupt("section %d where %d expected", gotID, id)
		}
		payloads[id] = payload
		crcs[id] = crc
		off = next
	}
	if off != len(buf) {
		return nil, nil, corrupt("%d trailing bytes after footer", len(buf)-off)
	}
	// The footer verifies inline; the payload sections verify inside their
	// decode goroutines below, ahead of any decoding.
	if err := checkSection(secFooter, payloads[secFooter], crcs[secFooter]); err != nil {
		return nil, nil, err
	}
	if string(payloads[secFooter]) != snapFooter {
		return nil, nil, corrupt("bad footer")
	}

	// The three payload sections are independent byte ranges; decode them
	// concurrently — recovery latency is the point of snapshots, and the
	// records and columns sections are each megabytes at bench scale. The
	// columns goroutine is not joined here; wait exposes it.
	var recErr, blobErr, colErr error
	var wg sync.WaitGroup
	wg.Add(2)
	colDone := make(chan struct{})
	go func() {
		defer wg.Done()
		if recErr = checkSection(secRecords, payloads[secRecords], crcs[secRecords]); recErr != nil {
			return
		}
		records, err := decodeRecordsSection(payloads[secRecords], numRecords)
		if err != nil {
			recErr = corrupt("records: %v", err)
			return
		}
		data.records = records
	}()
	go func() {
		defer wg.Done()
		if blobErr = checkSection(secBlobs, payloads[secBlobs], crcs[secBlobs]); blobErr != nil {
			return
		}
		data.blobs, blobErr = decodeBlobsSection(payloads[secBlobs], numBlobs)
	}()
	go func() {
		defer close(colDone)
		for _, id := range colSections {
			if colErr = checkSection(id, payloads[id], crcs[id]); colErr != nil {
				return
			}
		}
		if version == snapVersionPaged {
			metas, err := decodeColMetaSection(payloads[secColMeta], numColumns, uint64(len(payloads[secColPages])))
			if err == nil {
				data.columns, err = assembleColumnsEager(metas, payloads[secColPages])
			}
			colErr = err
			return
		}
		cd := &decoder{buf: payloads[secColumns]}
		if n := cd.count(16); cd.err == nil && n != numColumns {
			cd.fail("column count %d disagrees with header %d", n, numColumns)
		}
		data.columns = make([]query.ColumnData, 0, numColumns)
		for i := 0; i < numColumns && cd.err == nil; i++ {
			data.columns = append(data.columns, decodeColumn(cd))
		}
		if cd.err == nil && cd.remaining() != 0 {
			cd.fail("trailing bytes")
		}
		if cd.err != nil {
			colErr = corrupt("columns: %v", cd.err)
		}
	}()
	wait := func() error {
		<-colDone
		return colErr
	}
	wg.Wait()
	for _, err := range []error{recErr, blobErr} {
		if err != nil {
			// Join the columns goroutine before the caller discards data —
			// nothing may still be writing into a snapshot we reject.
			_ = wait()
			return nil, nil, err
		}
	}
	return data, wait, nil
}

// decodeBlobsSection decodes the blob map (shared by the eager and lazy
// loaders; the caller has already verified the section checksum).
func decodeBlobsSection(payload []byte, numBlobs int) (map[appmeta.Key][]byte, error) {
	bd := &decoder{buf: payload}
	if n := bd.count(12); bd.err == nil && n != numBlobs {
		bd.fail("blob count %d disagrees with header %d", n, numBlobs)
	}
	blobs := make(map[appmeta.Key][]byte, numBlobs)
	for i := 0; i < numBlobs && bd.err == nil; i++ {
		k := appmeta.Key{Market: bd.str(), Package: bd.str()}
		b := bd.bytes()
		if b == nil {
			b = []byte{}
		}
		if bd.err != nil {
			break
		}
		if _, dup := blobs[k]; dup {
			bd.fail("duplicate blob key %s/%s", k.Market, k.Package)
			break
		}
		blobs[k] = b
	}
	if bd.err == nil && bd.remaining() != 0 {
		bd.fail("trailing bytes")
	}
	if bd.err != nil {
		return nil, corrupt("blobs: %v", bd.err)
	}
	return blobs, nil
}

// String-layout tags inside a column record.
const (
	strLayoutPlain = 0
	strLayoutDict  = 1
)

func decodeColumn(d *decoder) query.ColumnData {
	c := query.ColumnData{Name: d.str(), Kind: query.Kind(d.str())}
	c.NullWords = d.u64s(d.count(8))
	c.NullCount = int(d.u64())
	c.HasNaN = d.bool()
	switch c.Kind {
	case query.KindInt:
		c.Ints = d.i64s(d.count(8))
	case query.KindFloat:
		c.Floats = d.f64s(d.count(8))
	case query.KindBool:
		c.Bools = d.bools(d.count(1))
	case query.KindTime:
		n := d.count(16)
		c.TimeSec = d.i64s(n)
		c.TimeNsec = d.i32s(n)
		c.TimeOff = d.i32s(n)
	case query.KindString:
		switch d.u8() {
		case strLayoutDict:
			c.Dict = d.strsPlane(d.count(4))
			if c.Dict == nil && d.err == nil {
				c.Dict = []string{}
			}
			c.Codes = d.u32s(d.count(4))
		case strLayoutPlain:
			c.Strs = d.strsPlane(d.count(4))
		default:
			d.fail("durable: unknown string layout")
		}
	default:
		d.fail("durable: unknown column kind %q", c.Kind)
	}
	c.SegmentRows = int(d.u32())
	nz := d.count(16)
	c.Zones = make([]query.ZoneData, 0, nz)
	for i := 0; i < nz && d.err == nil; i++ {
		c.Zones = append(c.Zones, query.ZoneData{
			Rows: d.i32(), Nulls: d.i32(), MinRow: d.i32(), MaxRow: d.i32(),
		})
	}
	if len(c.Zones) == 0 {
		c.Zones = nil
	}
	if d.bool() {
		n := d.count(4)
		c.Postings = make([][]int32, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			c.Postings = append(c.Postings, d.i32s(d.count(4)))
		}
	}
	return c
}

// writeSnapshot persists one snapshot and returns its final path.
func writeSnapshot(fsys FS, dir string, data *snapshotData) (string, error) {
	return writeSnapshotFile(fsys, dir, snapshotName(data.cursor), snapshotSections(data))
}

// writeSnapshotFile streams sections to a temp file and persists it under
// name with the fsync + rename + dir-fsync protocol. On any failure —
// including a section whose bytes disagree with its declared length — the
// temp file is removed and no snapshot becomes visible.
func writeSnapshotFile(fsys FS, dir, name string, secs []section) (string, error) {
	tmp := joinPath(dir, name+tmpSuffix)
	final := joinPath(dir, name)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("durable: create snapshot temp: %w", err)
	}
	cleanup := func() { _ = fsys.Remove(tmp) }
	if err := writeSections(f, secs); err != nil {
		f.Close()
		cleanup()
		return "", fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return "", fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return "", fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		cleanup()
		return "", fmt.Errorf("durable: rename snapshot into place: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return "", fmt.Errorf("durable: sync snapshot dir: %w", err)
	}
	return final, nil
}

// loadSnapshotFile reads and fully decodes one snapshot file.
func loadSnapshotFile(fsys FS, path string) (*snapshotData, error) {
	buf, err := readWhole(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("durable: read snapshot: %w", err)
	}
	return decodeSnapshot(buf)
}

// loadSnapshotFileOverlap is loadSnapshotFile with the columns section left
// decoding in the background; see decodeSnapshotOverlap.
func loadSnapshotFileOverlap(fsys FS, path string) (*snapshotData, func() error, error) {
	buf, err := readWhole(fsys, path)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: read snapshot: %w", err)
	}
	return decodeSnapshotOverlap(buf)
}

// joinPath joins with forward slashes — both the OS filesystem (on the
// platforms this runs on) and the in-memory test filesystem accept them, and
// a fixed separator keeps paths deterministic across both.
func joinPath(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}
