package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

	"marketscope/internal/appmeta"
	"marketscope/internal/ingest"
)

// Binary primitives shared by the WAL and the snapshot format. Everything is
// little-endian and length-prefixed; the decoder carries a sticky error and
// bounds-checks every read against the remaining input, so arbitrary
// (fuzzed, truncated, bit-flipped) bytes decode to a clean error — never a
// panic and never an allocation larger than the input itself.

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// strsPlane encodes strings planar — count, a u32 length per string, then all
// bytes concatenated — the layout decoder.strsPlane reads back with three
// allocations total.
func (e *encoder) strsPlane(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.u32(uint32(len(s)))
	}
	for _, s := range ss {
		e.buf = append(e.buf, s...)
	}
}

// timeVal encodes an instant as (Unix seconds, nanoseconds, UTC offset in
// seconds). The offset — not the zone name — is what RFC 3339 formatting and
// every comparison the engine makes observe, so the triple round-trips a
// time exactly for the engine's purposes; time.Unix handles the zero time's
// negative seconds without overflow (UnixNano would not, for extreme years).
func (e *encoder) timeVal(t time.Time) {
	_, off := t.Zone()
	e.i64(t.Unix())
	e.i32(int32(t.Nanosecond()))
	e.i32(int32(off))
}

type decoder struct {
	buf []byte
	// sview is a lazily made string view of buf. str() returns substrings of
	// it, so a section with a million strings costs zero allocations instead
	// of a million — at the price of pinning the whole input buffer for as
	// long as any decoded string lives. The view aliases buf without copying,
	// which is sound because nothing writes to a buffer while a string decoded
	// from it is still read; see stringView.
	sview string
	off   int
	err   error
}

// stringView returns b's bytes as a string without copying. Nothing writes
// to b while a string decoded from it is still read, so the aliasing is
// invisible: the durable read path allocates a fresh buffer per file read,
// except a page fetch, which reads into a buffer the page pool lends. A plain
// string column decoded from that buffer keeps it lent for as long as the
// column is resident, only requests that pin the column read those strings,
// and the engine copies each one it emits (query's column.value and
// column.typed), so none outlives the buffer's reuse by a later fetch.
// Copying instead (string(b)) would memmove tens of megabytes per snapshot
// load just to satisfy the string type.
func stringView(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

// take returns the next n bytes of the input (aliased, not copied), or marks
// the decoder failed when fewer remain.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail("durable: truncated input: need %d bytes, have %d", n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("durable: invalid bool byte")
		return false
	}
}

func (d *decoder) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil || n == 0 {
		return ""
	}
	if d.sview == "" {
		d.sview = stringView(d.buf)
	}
	return d.sview[d.off-n : d.off]
}

// Bulk decoders: one bounds check for a whole fixed-width run instead of a
// take() per element. Snapshot pages and record planes hold hundreds of
// thousands of values; the per-call overhead is what recovery time is made
// of. Each kind has one decode loop. For the kinds a page holds it lives in
// an into-decoder, which fills a caller-owned slice (len(dst) values) so a
// page decodes straight into its column's planes; the allocating form wraps
// it after checking the input holds every value.

// fits reports whether n values of size bytes each remain, failing the
// decoder otherwise: the allocating decoders check it before sizing their
// result, so a corrupted count cannot drive the allocation.
func (d *decoder) fits(n, size int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.remaining()/size {
		d.fail("durable: truncated input: need %d values of %d bytes, have %d bytes", n, size, d.remaining())
		return false
	}
	return true
}

func (d *decoder) u64s(n int) []uint64 {
	b := d.take(n * 8)
	if b == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func (d *decoder) i64sInto(dst []int64) {
	b := d.take(len(dst) * 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func (d *decoder) i64s(n int) []int64 {
	if !d.fits(n, 8) {
		return nil
	}
	out := make([]int64, n)
	d.i64sInto(out)
	return out
}

func (d *decoder) f64sInto(dst []float64) {
	b := d.take(len(dst) * 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func (d *decoder) f64s(n int) []float64 {
	if !d.fits(n, 8) {
		return nil
	}
	out := make([]float64, n)
	d.f64sInto(out)
	return out
}

func (d *decoder) u32sInto(dst []uint32) {
	b := d.take(len(dst) * 4)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
}

func (d *decoder) i32sInto(dst []int32) {
	b := d.take(len(dst) * 4)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
}

func (d *decoder) i32s(n int) []int32 {
	if !d.fits(n, 4) {
		return nil
	}
	out := make([]int32, n)
	d.i32sInto(out)
	return out
}

func (d *decoder) boolsInto(dst []bool) {
	b := d.take(len(dst))
	if b == nil {
		return
	}
	for i, v := range b {
		switch v {
		case 0:
			dst[i] = false
		case 1:
			dst[i] = true
		default:
			d.fail("durable: invalid bool byte")
			return
		}
	}
}

func (d *decoder) bools(n int) []bool {
	if !d.fits(n, 1) {
		return nil
	}
	out := make([]bool, n)
	if d.boolsInto(out); d.err != nil {
		return nil
	}
	return out
}

// strsPlaneInto decodes len(dst) strings stored planar — a u32 length per
// string, then every string's bytes concatenated — as substrings of the
// decoder's single string view: no allocation beyond the view itself, which
// is made once per decoder and pins the whole input buffer.
func (d *decoder) strsPlaneInto(dst []string) {
	lens := d.take(len(dst) * 4)
	if lens == nil {
		return
	}
	var total uint64
	for i := range dst {
		total += uint64(binary.LittleEndian.Uint32(lens[i*4:]))
	}
	if total > uint64(d.remaining()) {
		d.fail("durable: string plane of %d bytes, have %d", total, d.remaining())
		return
	}
	off := d.off
	d.take(int(total))
	if d.sview == "" && len(d.buf) > 0 {
		d.sview = stringView(d.buf)
	}
	for i := range dst {
		l := int(binary.LittleEndian.Uint32(lens[i*4:]))
		dst[i] = d.sview[off : off+l]
		off += l
	}
}

func (d *decoder) strsPlane(n int) []string {
	if !d.fits(n, 4) {
		return nil
	}
	out := make([]string, n)
	if d.strsPlaneInto(out); d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// count reads a u32 element count and rejects counts that could not possibly
// fit in the remaining input (each element needs at least minBytes), so a
// corrupted length prefix cannot drive a huge allocation.
func (d *decoder) count(minBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if minBytes > 0 && n > d.remaining()/minBytes {
		d.fail("durable: implausible count %d for %d remaining bytes", n, d.remaining())
		return 0
	}
	return n
}

func (d *decoder) timeVal() time.Time {
	sec := d.i64()
	nsec := d.i32()
	off := d.i32()
	if d.err != nil {
		return time.Time{}
	}
	if nsec < 0 || nsec >= 1e9 {
		d.fail("durable: time nanoseconds %d out of range", nsec)
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec)).UTC()
	if off != 0 {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t
}

// Record layout: every appmeta.Record field in declaration order. The WAL
// and the snapshot share it; its stability is part of the container formats'
// version contract (bump the magic on change).

func encodeRecord(e *encoder, r appmeta.Record) {
	e.str(r.Market)
	e.str(r.Package)
	e.str(r.AppName)
	e.str(r.Category)
	e.str(r.DeveloperName)
	e.i64(r.VersionCode)
	e.str(r.VersionName)
	e.str(r.Description)
	e.i64(r.Downloads)
	e.f64(r.Rating)
	e.timeVal(r.ReleaseDate)
	e.timeVal(r.UpdateDate)
	e.i64(r.APKSize)
	e.bool(r.HasAds)
	e.bool(r.HasIAP)
}

func decodeRecord(d *decoder) appmeta.Record {
	return appmeta.Record{
		Market:        d.str(),
		Package:       d.str(),
		AppName:       d.str(),
		Category:      d.str(),
		DeveloperName: d.str(),
		VersionCode:   d.i64(),
		VersionName:   d.str(),
		Description:   d.str(),
		Downloads:     d.i64(),
		Rating:        d.f64(),
		ReleaseDate:   d.timeVal(),
		UpdateDate:    d.timeVal(),
		APKSize:       d.i64(),
		HasAds:        d.bool(),
		HasIAP:        d.bool(),
	}
}

// Delta payload layout (the WAL record body after the seq): listing count,
// then per listing the record, a has-APK flag and the APK bytes. The flag
// preserves nil-versus-empty APKs — an empty archive is still an archive the
// parser must fail on identically after replay.

func encodeListings(listings []ingest.Listing) []byte {
	var e encoder
	e.u32(uint32(len(listings)))
	for _, l := range listings {
		encodeRecord(&e, l.Record)
		e.bool(l.APK != nil)
		if l.APK != nil {
			e.bytes(l.APK)
		}
	}
	return e.buf
}

func decodeListings(payload []byte) ([]ingest.Listing, error) {
	d := &decoder{buf: payload}
	// A listing is at least a record's fixed-width fields: 8 string lengths
	// (4 bytes each) plus 4×i64, f64, 2×time (16 each), 2 bools and the APK
	// flag — conservatively 64 bytes.
	n := d.count(64)
	listings := make([]ingest.Listing, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		l := ingest.Listing{Record: decodeRecord(d)}
		if d.bool() {
			l.APK = []byte{}
			if b := d.bytes(); b != nil {
				l.APK = b
			}
		}
		listings = append(listings, l)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after %d listings", d.remaining(), n)
	}
	return listings, nil
}
