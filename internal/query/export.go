package query

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"marketscope/internal/pipeline"
)

// Column export/import: the bridge between a built engine and the durable
// snapshot format. ExportColumns freezes every typed column into plain
// exported slices a codec can serialize; NewEngineFromColumns rebuilds an
// engine from those slices without re-running a single extractor. Indexes
// are not exported: an imported engine builds them lazily, from the columns,
// as a cold one does.
//
// The contract mirrors NewEngineAppend's: the caller asserts that the items
// slice is row-for-row the one the columns were built over. Import validates
// everything structural — lengths, null-bitmap consistency, dictionary order,
// code ranges, zone maps — so a corrupted snapshot fails loudly here, but
// value agreement between items and columns is the caller's contract (the
// durable layer's torture suite asserts it by comparing planned scans
// against the boxed-extractor oracle).

// ZoneData is the exported form of one segment zone map.
type ZoneData struct {
	Rows   int32
	Nulls  int32
	MinRow int32
	MaxRow int32
}

// ColumnData is one field's column in exported form. Exactly one value
// representation is populated, selected by Kind (strings use either Strs or
// Dict+Codes); times are planar — Unix seconds, nanoseconds and the zone
// offset — as in the engine's own columns, so the codec never touches
// time.Time internals and export and import hand the planes over as they are.
type ColumnData struct {
	Name      string
	Kind      Kind
	NullWords []uint64
	NullCount int
	HasNaN    bool

	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool

	// Times: per-row absolute instant (Unix seconds + nanoseconds) and UTC
	// offset in seconds. The offset reproduces RFC 3339 formatting — the only
	// location property emitValue observes — without serializing zone names.
	TimeSec  []int64
	TimeNsec []int32
	TimeOff  []int32

	// Dictionary layout (string columns): Dict is sorted and unique, Codes
	// holds one index per row (zero where null).
	Dict  []string
	Codes []uint32

	// SegmentRows is the zone-map segment geometry the zones were built with;
	// Zones has one entry per segment. Import verifies them against a rebuild
	// over the imported values.
	SegmentRows int
	Zones       []ZoneData
}

// ExportColumns materializes every registered field's column (through the
// same lazy cache scans use) and returns the exported forms in registration
// order. The engine may be serving concurrent scans throughout. On a paged
// engine it holds no pin, so each paged column is built from items instead
// of read from the page pool.
func (e *Engine[T]) ExportColumns() []ColumnData {
	out := make([]ColumnData, 0, len(e.reg.order))
	for ord, name := range e.reg.order {
		var c *column
		if e.pager != nil && e.pager.slots[ord] != nil {
			c = e.pager.transientColumn(e, ord)
		} else {
			c = e.columnFor(ord)
		}
		// Every plane leaves capacity-capped: its spare capacity belongs to
		// the append that claims the column, and an append to an exported
		// plane must not write into it.
		cd := ColumnData{
			Name:      name,
			Kind:      c.kind,
			NullWords: slices.Clip(c.nulls),
			NullCount: c.nullCount,
			HasNaN:    c.hasNaN,
			Ints:      slices.Clip(c.ints),
			Floats:    slices.Clip(c.floats),
			Strs:      slices.Clip(c.strs),
			Bools:     slices.Clip(c.bools),
			TimeSec:   slices.Clip(c.timeSec),
			TimeNsec:  slices.Clip(c.timeNsec),
			TimeOff:   slices.Clip(c.timeOff),
			Dict:      slices.Clip(c.dict),
			Codes:     slices.Clip(c.codes),
		}
		if c.kind == KindString && c.strs == nil && c.dict == nil {
			// A fully-null dictionary column degenerates to nil slices when
			// encoded (no non-null value ever reached the dictionary);
			// normalize to the plain layout so lengths stay row-counted.
			cd.Strs = make([]string, len(e.items))
			cd.Codes = nil
		}
		cd.SegmentRows = segmentSize
		cd.Zones = exportZones(c.zones)
		out = append(out, cd)
	}
	return out
}

func exportZones(zones []zone) []ZoneData {
	if zones == nil {
		return nil
	}
	out := make([]ZoneData, len(zones))
	for i, z := range zones {
		out[i] = ZoneData{Rows: z.rows, Nulls: z.nulls, MinRow: z.minRow, MaxRow: z.maxRow}
	}
	return out
}

// NewEngineFromColumns builds a compressed engine over items with every
// column in cols pre-installed instead of lazily extracted. Fields absent
// from cols stay lazy, exactly as on a cold engine. Every structural
// property of every column is validated against items' length and the null
// bitmap; any inconsistency returns an error and no engine.
func NewEngineFromColumns[T any](reg *Registry[T], items []T, cols []ColumnData) (*Engine[T], error) {
	e := NewEngine(reg, items)
	seen := make(map[string]bool, len(cols))
	ords := make([]int, len(cols))
	for i := range cols {
		cd := &cols[i]
		if seen[cd.Name] {
			return nil, fmt.Errorf("query: import: duplicate column %q", cd.Name)
		}
		seen[cd.Name] = true
		ord, ok := e.ordinals[cd.Name]
		if !ok {
			return nil, fmt.Errorf("query: import: unknown column %q", cd.Name)
		}
		if f := reg.byName[cd.Name]; f.Kind != cd.Kind {
			return nil, fmt.Errorf("query: import: column %q is %s, registry has %s", cd.Name, cd.Kind, f.Kind)
		}
		ords[i] = ord
	}
	// The per-column work — structural validation, zone adoption or
	// rebuild — is independent across columns and dominates snapshot
	// recovery time, so fan it out; installation into the engine's slots
	// stays serial below.
	type imported struct {
		c   *column
		err error
	}
	results := make([]imported, len(cols))
	pipeline.ForEach(len(cols), 0, func(i int) {
		cd := &cols[i]
		c, err := importColumn(reg.byName[cd.Name].Dictionary, cd, len(items))
		if err != nil {
			err = fmt.Errorf("query: import: column %q: %w", cd.Name, err)
		}
		results[i] = imported{c, err}
	})
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		slot := &e.cols[ords[i]]
		c := results[i].c
		slot.once.Do(func() { slot.col.Store(c) })
	}
	return e, nil
}

// importColumn validates one exported column against the row count and
// reassembles the internal representation. The value planes are adopted
// capacity-capped: the engine owns no memory past their lengths, so the
// first append to claim the column copies them.
func importColumn(dictionaryHint bool, cd *ColumnData, n int) (*column, error) {
	c := &column{kind: cd.Kind, nulls: bitset(cd.NullWords), nullCount: cd.NullCount, hasNaN: cd.HasNaN}
	if len(cd.NullWords) != (n+63)/64 {
		return nil, fmt.Errorf("null bitmap has %d words, want %d for %d rows", len(cd.NullWords), (n+63)/64, n)
	}
	popcount := 0
	for _, w := range cd.NullWords {
		popcount += bits.OnesCount64(w)
	}
	if popcount != cd.NullCount {
		return nil, fmt.Errorf("null count %d does not match bitmap population %d", cd.NullCount, popcount)
	}
	if n%64 != 0 && len(cd.NullWords) > 0 {
		if stray := cd.NullWords[len(cd.NullWords)-1] >> (uint(n) % 64); stray != 0 {
			return nil, fmt.Errorf("null bitmap has bits set past row %d", n)
		}
	}

	wantLen := func(what string, got int) error {
		if got != n {
			return fmt.Errorf("%s has %d entries, want %d", what, got, n)
		}
		return nil
	}
	switch cd.Kind {
	case KindInt:
		if err := wantLen("int column", len(cd.Ints)); err != nil {
			return nil, err
		}
		c.ints = slices.Clip(cd.Ints)
	case KindFloat:
		if err := wantLen("float column", len(cd.Floats)); err != nil {
			return nil, err
		}
		hasNaN := false
		for i, v := range cd.Floats {
			if math.IsNaN(v) && !c.nulls.get(i) {
				hasNaN = true
				break
			}
		}
		if hasNaN != cd.HasNaN {
			return nil, fmt.Errorf("hasNaN flag %v does not match values (%v)", cd.HasNaN, hasNaN)
		}
		c.floats = slices.Clip(cd.Floats)
	case KindBool:
		if err := wantLen("bool column", len(cd.Bools)); err != nil {
			return nil, err
		}
		c.bools = slices.Clip(cd.Bools)
	case KindTime:
		if err := wantLen("time seconds", len(cd.TimeSec)); err != nil {
			return nil, err
		}
		if len(cd.TimeNsec) != n || len(cd.TimeOff) != n {
			return nil, fmt.Errorf("time column slices disagree: %d/%d/%d entries, want %d",
				len(cd.TimeSec), len(cd.TimeNsec), len(cd.TimeOff), n)
		}
		for i, nsec := range cd.TimeNsec {
			if nsec < 0 || nsec >= 1e9 {
				return nil, fmt.Errorf("row %d has nanoseconds %d out of range", i, nsec)
			}
		}
		c.timeSec, c.timeNsec, c.timeOff = slices.Clip(cd.TimeSec), slices.Clip(cd.TimeNsec), slices.Clip(cd.TimeOff)
	case KindString:
		if cd.Dict != nil {
			if !dictionaryHint {
				return nil, fmt.Errorf("dictionary layout on a field without the dictionary hint")
			}
			if err := wantLen("code column", len(cd.Codes)); err != nil {
				return nil, err
			}
			for k := 1; k < len(cd.Dict); k++ {
				if cd.Dict[k-1] >= cd.Dict[k] {
					return nil, fmt.Errorf("dictionary not sorted/unique at entry %d", k)
				}
			}
			for i, code := range cd.Codes {
				if c.nulls.get(i) {
					if code != 0 {
						return nil, fmt.Errorf("null row %d has nonzero code %d", i, code)
					}
					continue
				}
				if int(code) >= len(cd.Dict) {
					return nil, fmt.Errorf("row %d has code %d past dictionary size %d", i, code, len(cd.Dict))
				}
			}
			c.dict, c.codes = slices.Clip(cd.Dict), slices.Clip(cd.Codes)
		} else {
			if err := wantLen("string column", len(cd.Strs)); err != nil {
				return nil, err
			}
			c.strs = slices.Clip(cd.Strs)
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", cd.Kind)
	}
	if cd.Kind != KindFloat && cd.HasNaN {
		return nil, fmt.Errorf("hasNaN set on a %s column", cd.Kind)
	}

	// Zone maps: adopt the stored ones when their geometry matches this
	// engine's segment size, otherwise derive them fresh. The stored zones are
	// integrity-checked by the caller's transport (the snapshot section CRC),
	// so a full value-by-value rebuild would only re-verify what the checksum
	// already guarantees — at a full compareRows pass per column, the single
	// largest cost of importing a snapshot. Adoption still validates every
	// structural invariant pruning relies on (witness rows in-segment,
	// non-null, index-safe, min<=max), so a logically inconsistent writer
	// fails loudly instead of mis-pruning.
	if cd.SegmentRows == segmentSize && len(cd.Zones) > 0 {
		zones, err := adoptZones(c, cd.Zones, n)
		if err != nil {
			return nil, fmt.Errorf("zone maps: %w", err)
		}
		c.zones = zones
	} else {
		c.buildZones()
	}
	return c, nil
}

// adoptZones converts exported zone maps into the internal representation,
// enforcing the invariants a pruning decision depends on. Checks are O(1) per
// segment — the point of adoption is skipping the O(rows) rebuild.
func adoptZones(c *column, stored []ZoneData, n int) ([]zone, error) {
	want := (n + segmentSize - 1) / segmentSize
	if len(stored) != want {
		return nil, fmt.Errorf("stored %d segments, want %d for %d rows", len(stored), want, n)
	}
	ordered := witnessed(c.kind) && !c.hasNaN
	zones := make([]zone, len(stored))
	for i, s := range stored {
		lo := int32(i * segmentSize)
		hi := lo + int32(segmentSize)
		if int(hi) > n {
			hi = int32(n)
		}
		if s.Rows != hi-lo {
			return nil, fmt.Errorf("segment %d has %d rows, want %d", i, s.Rows, hi-lo)
		}
		// Null counts prune IS NULL / NOT NULL scans, so recount them from the
		// bitmap: segments are word-aligned (segmentSize is a multiple of 64)
		// and stray bits past the last row were rejected above, so a popcount
		// per word is exact.
		nulls := int32(0)
		for w := lo / 64; w < (hi+63)/64; w++ {
			nulls += int32(bits.OnesCount64(c.nulls[w]))
		}
		if s.Nulls != nulls {
			return nil, fmt.Errorf("segment %d claims %d nulls, bitmap holds %d", i, s.Nulls, nulls)
		}
		if !ordered || s.Nulls == s.Rows {
			// Bools, NaN-poisoned floats and all-null segments carry no
			// witnesses, mirroring buildZones.
			if s.MinRow != -1 || s.MaxRow != -1 {
				return nil, fmt.Errorf("segment %d has witnesses {%d %d} but must not", i, s.MinRow, s.MaxRow)
			}
			zones[i] = zone{rows: s.Rows, nulls: s.Nulls, minRow: -1, maxRow: -1}
			continue
		}
		// Ordered segment with at least one non-null row: witnesses must be
		// in-segment non-null rows (they index value slices during pruning)
		// with min <= max under the column's own comparison.
		for _, w := range [2]int32{s.MinRow, s.MaxRow} {
			if w < lo || w >= hi {
				return nil, fmt.Errorf("segment %d witness row %d outside [%d,%d)", i, w, lo, hi)
			}
			if c.nulls.get(int(w)) {
				return nil, fmt.Errorf("segment %d witness row %d is null", i, w)
			}
		}
		if c.compareRows(int(s.MinRow), int(s.MaxRow)) > 0 {
			return nil, fmt.Errorf("segment %d min witness %d exceeds max witness %d", i, s.MinRow, s.MaxRow)
		}
		zones[i] = zone{rows: s.Rows, nulls: s.Nulls, minRow: s.MinRow, maxRow: s.MaxRow}
	}
	return zones, nil
}
