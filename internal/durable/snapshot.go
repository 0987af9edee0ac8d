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
	"time"

	"marketscope/internal/analysis"
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
//	  6 colmeta: per column, everything but the value planes (null bitmap,
//	             dictionary, zone maps, a posting-list flag that is false
//	             since files stopped carrying posting lists) plus the page
//	             table locating the planes inside section 7
//	  7 pages:   per-page frames [ len u32 | crc u32 | payload ] of column
//	             value planes — individually checksummed so a reader can
//	             fetch and verify one column without touching the rest
//	  5 footer:  "MSNAPEND"
//
// Every section payload carries its own CRC32-C; the footer proves the file
// was written to completion. Snapshots are streamed section by section to a
// temp name (every length is known before its payload, so nothing is
// buffered whole), fsynced, atomically renamed to snap-<cursor>.snap and the
// directory fsynced, so a crash mid-write leaves at worst a stale temp file,
// which the next Open deletes — never a half-visible snapshot. Any decode failure anywhere makes the whole file invalid; the
// store then quarantines it and falls back. The single exception is a header
// announcing a version other than 2 — version 1, which kept the columns in
// one section (id 4) this build does not decode, or a newer build's format:
// the file is refused wholesale (ErrSnapshotVersion) but left in place.
//
// This build writes and reads version 2 only. Its one reader, shared by the
// paged and the materialized store, and the page codec live in paged.go.

const (
	snapMagic       = "MSNAP001"
	snapMagicPrefix = "MSNAP"
	snapFooter      = "MSNAPEND"
	// snapVersionPaged is the one format this build writes and reads: column
	// value planes live in a per-page-checksummed pages section behind a page
	// table, so a reader can validate the file and serve queries without
	// materializing the columns (see paged.go).
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
	secFooter  = 5
	// Column metadata (everything but the value planes, plus the page table)
	// and the page frames themselves.
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

// recordsSection encodes the listings' metadata records straight from each
// App's Meta, in dataset order, without gathering them into a slice first.
func recordsSection(apps []*analysis.App) section {
	size := 4 + uint64(recordFixedBytes*len(apps))
	for _, get := range recordStringFields {
		for _, app := range apps {
			size += uint64(len(*get(&app.Meta)))
		}
	}
	return section{id: secRecords, size: size, emit: func(sw *sectionWriter) {
		sw.u32(uint32(len(apps)))
		for _, app := range apps {
			sw.i64(app.Meta.VersionCode)
			sw.spill()
		}
		for _, app := range apps {
			sw.i64(app.Meta.Downloads)
			sw.spill()
		}
		for _, app := range apps {
			sw.f64(app.Meta.Rating)
			sw.spill()
		}
		for _, get := range []func(*appmeta.Record) time.Time{
			func(r *appmeta.Record) time.Time { return r.ReleaseDate },
			func(r *appmeta.Record) time.Time { return r.UpdateDate },
		} {
			for _, app := range apps {
				sw.i64(get(&app.Meta).Unix())
				sw.spill()
			}
			for _, app := range apps {
				sw.i32(int32(get(&app.Meta).Nanosecond()))
				sw.spill()
			}
			for _, app := range apps {
				_, off := get(&app.Meta).Zone()
				sw.i32(int32(off))
				sw.spill()
			}
		}
		for _, app := range apps {
			sw.i64(app.Meta.APKSize)
			sw.spill()
		}
		for _, app := range apps {
			sw.bool(app.Meta.HasAds)
			sw.spill()
		}
		for _, app := range apps {
			sw.bool(app.Meta.HasIAP)
			sw.spill()
		}
		for _, get := range recordStringFields {
			for _, app := range apps {
				sw.u32(uint32(len(*get(&app.Meta))))
				sw.spill()
			}
			for _, app := range apps {
				sw.buf = append(sw.buf, *get(&app.Meta)...)
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

// ErrSnapshotVersion marks a snapshot in a format version this build does not
// read: version 1, or a newer build's. The file is not corrupt — the binary
// that wrote it can load it — so recovery skips it without quarantining and
// falls back to an older generation or the WAL. Nothing of the file is
// adopted.
var ErrSnapshotVersion = errors.New("durable: snapshot in a version this build does not read")

// snapshotData is what one snapshot holds: everything recovery needs to
// rebuild the ingestor (the listings' records + blobs + cursor + crawl time)
// plus the column store that spares the engine its re-extraction. Only each
// listing's Meta is written.
type snapshotData struct {
	cursor    uint64
	crawlTime time.Time
	apps      []*analysis.App
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
		sw.u32(uint32(len(data.apps)))
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
		recordsSection(data.apps),
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

func checkSection(id uint32, payload []byte, crc uint32) error {
	if crc32.Checksum(payload, castagnoli) != crc {
		return corrupt("section %d checksum mismatch", id)
	}
	return nil
}

// decodeBlobsSection decodes the blob map (the caller has already verified
// the section checksum).
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

// joinPath joins with forward slashes — both the OS filesystem (on the
// platforms this runs on) and the in-memory test filesystem accept them, and
// a fixed separator keeps paths deterministic across both.
func joinPath(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}
