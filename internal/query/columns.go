package query

import (
	"cmp"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Segment geometry for zone maps: every column is split into fixed-size row
// segments, each carrying a zone (row/null counts plus min/max witnesses) so
// a full scan can skip whole segments a filter provably cannot match. These
// are variables, not constants, so the test suite can shrink segments and
// exercise multi-segment pruning on small datasets; production code must not
// change them after any engine has been built.
var (
	// segmentSize is the number of rows per zone-mapped segment.
	segmentSize = 4096
)

// dictCardLimit is the largest dictionary worth keeping for an n-row string
// column. Below 256 distinct values encoding always wins; beyond that the
// dictionary must stay under half the row count or the column keeps its
// plain layout (a near-unique column pays dictionary overhead for nothing).
func dictCardLimit(n int) int {
	if n/2 > 256 {
		return n / 2
	}
	return 256
}

// zone summarizes one fixed-size row segment of a column for scan pruning:
// how many rows and nulls it holds, plus witness rows carrying its minimum
// and maximum non-null value (-1 when the segment has no non-null rows, or
// when the kind is unordered / the column contains NaN, whose comparison
// semantics break the min/max invariant). Storing witness rows instead of
// typed values keeps the zone layout kind-independent: bounds checks reuse
// compareOperand, so pruning decisions use exactly the scan's comparison
// semantics.
type zone struct {
	rows   int32
	nulls  int32
	minRow int32
	maxRow int32
}

// bitset is a fixed-size bitmap; columns use one to mark null rows.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// column is one field materialized as a typed slice plus a null bitmap.
// Exactly one of the value slices is populated, selected by kind, so filter
// and sort evaluation becomes tight loops over machine types instead of
// boxed extractor calls. A column is immutable once built, below its length:
// the one append that claims it (colSlot.claimed) may write past its length
// into its planes' spare capacity, which the column never reads.
type column struct {
	kind      Kind
	nulls     bitset
	nullCount int
	// hasNaN marks float columns containing NaN. compareValues treats NaN
	// as equal to everything, which breaks the transitivity a sorted index
	// needs, so such columns refuse to back one (the planner falls back to
	// a residual scan, matching the oracle bit for bit).
	hasNaN bool

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool

	// lentStrs marks a plain string column whose strs alias a read buffer a
	// PagePool lent: the buffer goes to another fetch once the column is
	// evicted, so value and typed copy every string they emit.
	lentStrs bool

	// Times are planar, the layout ColumnData and snapshot pages use: the
	// instant as Unix seconds plus nanoseconds, which is all a comparison,
	// zone map, sorted index or group key reads, and the UTC offset in
	// seconds, which only emitted cells need (timeAt). Null rows are zero.
	timeSec  []int64
	timeNsec []int32
	timeOff  []int32

	// Dictionary encoding (string columns marked Field.Dictionary, within
	// dictCardLimit): dict is the sorted slice of distinct non-null
	// values and codes holds one index into it per row (unspecified where
	// null). A non-nil dict marks the column encoded — strs is then nil.
	// Because dict is sorted, code order is value order, so comparisons and
	// group keys work on the ints alone.
	dict  []string
	codes []uint32

	// zones holds the per-segment zone maps (segmentSize rows each); nil
	// on an empty column.
	zones []zone
}

// colSlot is the lazy holder of one field's column: built at most once per
// engine, concurrently safe. The pointer is atomic so NewEngineAppend can
// peek at which columns a live engine has already built without racing the
// sync.Once that builds them. claimed is set by the one append that may
// write into the spare capacity of the column's planes; every other append
// from this engine copies them.
type colSlot struct {
	once    sync.Once
	col     atomic.Pointer[column]
	claimed atomic.Bool
}

// buildColumn materializes a field over every item (extractColumn), then
// dictionary-encodes a hinted string column and attaches per-segment zone
// maps; both change only the layout, never the values a scan observes.
func buildColumn[T any](f Field[T], items []T) *column {
	c := extractColumn(f, items)
	if f.Dictionary && f.Kind == KindString {
		c.encodeDict()
	}
	c.buildZones()
	return c
}

// extractColumn materializes a field over every item in the plain layout
// through the same extract() the oracle path uses, so cached values (nulls
// included) are identical to what a row-at-a-time scan would see.
func extractColumn[T any](f Field[T], items []T) *column {
	n := len(items)
	c := &column{kind: f.Kind, nulls: newBitset(n)}
	switch f.Kind {
	case KindInt:
		c.ints = make([]int64, n)
	case KindFloat:
		c.floats = make([]float64, n)
	case KindString:
		c.strs = make([]string, n)
	case KindBool:
		c.bools = make([]bool, n)
	case KindTime:
		c.timeSec = make([]int64, n)
		c.timeNsec = make([]int32, n)
		c.timeOff = make([]int32, n)
	}
	for i, item := range items {
		v, null := extract(f, item)
		if null {
			c.nulls.set(i)
			c.nullCount++
			continue
		}
		switch f.Kind {
		case KindInt:
			c.ints[i] = v.(int64)
		case KindFloat:
			x := v.(float64)
			c.floats[i] = x
			if math.IsNaN(x) {
				c.hasNaN = true
			}
		case KindString:
			c.strs[i] = v.(string)
		case KindBool:
			c.bools[i] = v.(bool)
		case KindTime:
			t := v.(time.Time)
			_, off := t.Zone()
			c.timeSec[i], c.timeNsec[i], c.timeOff[i] = t.Unix(), int32(t.Nanosecond()), int32(off)
		}
	}
	return c
}

// encodeDict rewrites a plain string column into dictionary form: distinct
// non-null values sorted into dict, per-row codes into it. Columns whose
// cardinality exceeds dictCardLimit keep the plain layout (the method is a
// no-op then) — the hint is best-effort, results never depend on it.
func (c *column) encodeDict() {
	n := len(c.strs)
	limit := dictCardLimit(n)
	codeOf := make(map[string]uint32, 64)
	var dict []string
	codes := make([]uint32, n)
	for i, s := range c.strs {
		if c.nulls.get(i) {
			continue
		}
		code, ok := codeOf[s]
		if !ok {
			if len(dict) >= limit {
				return
			}
			code = uint32(len(dict))
			codeOf[s] = code
			dict = append(dict, s)
		}
		codes[i] = code
	}
	// Sort the dictionary and remap codes so code order is value order:
	// compareRows then needs only an int compare, and range predicates
	// reduce to a code-interval test.
	sorted := append([]string(nil), dict...)
	sort.Strings(sorted)
	remap := make([]uint32, len(dict))
	for newCode, s := range sorted {
		remap[codeOf[s]] = uint32(newCode)
	}
	for i := range codes {
		if !c.nulls.get(i) {
			codes[i] = remap[codes[i]]
		}
	}
	c.dict, c.codes, c.strs = sorted, codes, nil
}

// buildZones computes the per-segment zone maps. Null and row counts are
// exact for every kind; min/max witnesses are recorded only for witnessed
// kinds without NaN, mirroring the sorted index's refusal — compareValues
// treats NaN as equal to everything, which would make the bounds unsound.
func (c *column) buildZones() { c.buildZonesFrom(nil) }

// witnessed reports whether a kind's zone maps carry min/max witness rows.
// Bools carry none, although the sorted index orders them: adoptZones holds
// stored zones to this rule, so changing it would make each build refuse
// the other's snapshots.
func witnessed(k Kind) bool {
	return k == KindString || k == KindInt || k == KindFloat || k == KindTime
}

// buildZonesFrom is buildZones taking the leading zones from sealed instead
// of recomputing them: sealed must be the zones of full segments whose rows
// hold the same values, in the same order, under the same NaN state, as
// c's first len(sealed) segments.
func (c *column) buildZonesFrom(sealed []zone) {
	n := columnLen(c)
	if n == 0 {
		return
	}
	ordered := witnessed(c.kind) && !c.hasNaN
	zones := make([]zone, (n+segmentSize-1)/segmentSize)
	for s := copy(zones, sealed); s < len(zones); s++ {
		lo := s * segmentSize
		hi := lo + segmentSize
		if hi > n {
			hi = n
		}
		z := &zones[s]
		z.rows = int32(hi - lo)
		z.minRow, z.maxRow = -1, -1
		for i := lo; i < hi; i++ {
			if c.nulls.get(i) {
				z.nulls++
				continue
			}
			if !ordered {
				continue
			}
			if z.minRow < 0 {
				z.minRow, z.maxRow = int32(i), int32(i)
				continue
			}
			if c.compareRows(i, int(z.minRow)) < 0 {
				z.minRow = int32(i)
			}
			if c.compareRows(i, int(z.maxRow)) > 0 {
				z.maxRow = int32(i)
			}
		}
	}
	c.zones = zones
}

// str returns the row's string value regardless of layout (dictionary code
// or plain slice). Callers must have checked nulls first.
func (c *column) str(i int) string {
	if c.dict != nil {
		return c.dict[c.codes[i]]
	}
	return c.strs[i]
}

// timeAt rebuilds the time.Time of row i from its planes: the instant in
// UTC, moved into a fixed zone when the offset is not zero. Emitted cells
// observe only the instant and the offset (RFC 3339), so the rebuild formats
// exactly like the extracted value.
func (c *column) timeAt(i int) time.Time {
	t := time.Unix(c.timeSec[i], int64(c.timeNsec[i])).UTC()
	if off := c.timeOff[i]; off != 0 {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t
}

// compareTime orders the instants (sec, nsec) and (sec2, nsec2), as
// time.Time.Compare does for times without a monotonic reading.
func compareTime(sec int64, nsec int32, sec2 int64, nsec2 int32) int {
	if c := cmp.Compare(sec, sec2); c != 0 {
		return c
	}
	return cmp.Compare(nsec, nsec2)
}

// value boxes the row's value in its JSON-facing representation (time as
// RFC 3339, mirroring emitValue), nil when null. Used by row
// materialization so output cells match the oracle's extract+emitValue.
// With typed, it is the only way a plain string leaves the engine, so both
// copy the strings of a lentStrs column.
func (c *column) value(i int) any {
	if c.nulls.get(i) {
		return nil
	}
	switch c.kind {
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.floats[i]
	case KindString:
		if c.lentStrs {
			return strings.Clone(c.strs[i])
		}
		return c.str(i)
	case KindBool:
		return c.bools[i]
	case KindTime:
		return c.timeAt(i).Format(time.RFC3339)
	}
	return nil
}

// typed boxes the row's value in its normalized (pre-emit) representation —
// a time is rebuilt as a time.Time — or nil when null. The aggregation path
// keeps cells typed until after sorting, then emits them through emitValue
// exactly like value().
func (c *column) typed(i int) any {
	if c.nulls.get(i) {
		return nil
	}
	switch c.kind {
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.floats[i]
	case KindString:
		if c.lentStrs {
			return strings.Clone(c.strs[i])
		}
		return c.str(i)
	case KindBool:
		return c.bools[i]
	case KindTime:
		return c.timeAt(i)
	}
	return nil
}

// compareRows orders the non-null values at rows a and b with exactly
// compareValues' semantics (floats: NaN compares equal to everything; times:
// instant comparison).
func (c *column) compareRows(a, b int) int {
	switch c.kind {
	case KindInt:
		return cmpOrdered(c.ints[a], c.ints[b])
	case KindFloat:
		return cmpOrdered(c.floats[a], c.floats[b])
	case KindString:
		if c.dict != nil {
			// The dictionary is sorted, so code order is value order.
			return cmpOrdered(c.codes[a], c.codes[b])
		}
		return cmpOrdered(c.strs[a], c.strs[b])
	case KindBool:
		return cmpBool(c.bools[a], c.bools[b])
	case KindTime:
		return compareTime(c.timeSec[a], c.timeNsec[a], c.timeSec[b], c.timeNsec[b])
	}
	return 0
}

// compareOperand orders the non-null value at row i against a normalized
// filter operand, again with compareValues' semantics.
func (c *column) compareOperand(i int, operand any) int {
	switch c.kind {
	case KindInt:
		return cmpOrdered(c.ints[i], operand.(int64))
	case KindFloat:
		return cmpOrdered(c.floats[i], operand.(float64))
	case KindString:
		return cmpOrdered(c.str(i), operand.(string))
	case KindBool:
		return cmpBool(c.bools[i], operand.(bool))
	case KindTime:
		t := operand.(time.Time)
		return compareTime(c.timeSec[i], c.timeNsec[i], t.Unix(), int32(t.Nanosecond()))
	}
	return 0
}

func cmpOrdered[V int64 | float64 | string | uint32](x, y V) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func cmpBool(x, y bool) int {
	switch {
	case !x && y:
		return -1
	case x && !y:
		return 1
	}
	return 0
}

// columnFor materializes (at most once, concurrently safe) the typed column
// of the field at registration ordinal ord. On a paged engine a paged ordinal
// returns the resident column the calling request pinned (pinOrds): the pool
// recycles an evicted column's memory, so a paged column is read only under
// a pin, and a reader that holds none builds its own (transientColumn).
func (e *Engine[T]) columnFor(ord int) *column {
	if p := e.pager; p != nil && p.slots[ord] != nil {
		return e.cols[ord].col.Load()
	}
	slot := &e.cols[ord]
	slot.once.Do(func() {
		f := e.reg.byName[e.reg.order[ord]]
		slot.col.Store(buildColumn(f, e.items))
	})
	return slot.col.Load()
}
