package query

import (
	"fmt"
	"slices"
)

// NewEngineAppend builds an engine over items, whose first len(base's items)
// entries are base's items, carrying forward the work base already did
// instead of redoing it over the whole corpus. items is kept as the new
// engine's item slice, not copied: the caller typically grew base's slice in
// place, so both engines share one array and each reads only its own length.
// For every typed column base has materialized:
//
//   - only the added rows go through the boxed extractor, and their values
//     are written after the old ones;
//   - a dictionary-encoded column keeps its codes: the added rows are looked
//     up in the old dictionary, new values are merged into it in sorted
//     order and old codes remapped through a monotone table (a union over
//     dictCardLimit, or a plain base column, takes the plain path of a cold
//     build instead);
//   - the zone maps of the segments base filled are reused and only the
//     tail segments rebuilt, unless the added rows bring the column's first
//     NaN, which changes every zone.
//
// For every field whose sorted index base has built, only the added rows are
// sorted and merged into base's permutation. Columns and indexes base never
// touched stay lazy on the new engine, exactly as on a cold build, and
// dictionary bitmaps always rebuild lazily. So do a paged base's paged
// columns, even resident ones: the build holds no pin, an eviction could
// hand a resident column's memory to another fetch mid-copy, and a plain
// string column's values alias a read buffer its pool lent.
//
// Delta-sized epochs: the first append from base claims each of base's
// built columns (a CAS on its slot) and writes the added rows into the spare
// capacity of the column's value planes, past base's length, where none of
// base's readers ever look. A plane without room grows through append
// (about 1.25x at corpus sizes), so a cold or recovered base copies once and
// the epochs after it write in place. Any later append from the same base
// (a fork) finds the columns claimed and copies them, so two successors
// never write the same rows. What still costs O(corpus) per append: the null
// bitmaps (n/8 bytes a column), the copied zone-map prefix, each carried
// sorted index's merge, a code remap when a new value sorts before an old
// one, and a dictionary-hinted column in plain layout, which re-runs
// encodeDict over every row.
//
// Contract: reg must be shape-compatible with base's registry (same field
// names and kinds, in order; validated here) and every base row must extract
// the same value under reg's extractors as it did under base's — the caller
// asserts that nothing about the old rows changed. Incremental ingest
// guarantees it by re-checking every old listing's enrichment and falling
// back to a cold build the moment anything differs.
//
// base may be serving concurrent scans throughout: the build only loads the
// atomic column and sorted-index pointers, reads immutable
// columns/indexes/items below base's length and writes past it, never
// touching base's lazy-build state.
//
// The result is indistinguishable from NewEngine(reg, items), internal
// layout included: every carried column, dictionary, zone map and sorted
// index is identical to the one a cold build would produce, so every scan
// and aggregate is byte-identical to the cold engine's.
func NewEngineAppend[T any](reg *Registry[T], base *Engine[T], items []T) (*Engine[T], error) {
	if base == nil {
		return nil, fmt.Errorf("query: NewEngineAppend with nil base engine")
	}
	if err := compatibleRegistries(reg, base.reg); err != nil {
		return nil, err
	}
	oldN := len(base.items)
	if len(items) < oldN {
		return nil, fmt.Errorf("query: append over %d items, base has %d", len(items), oldN)
	}
	e := NewEngine(reg, items)
	// Carry the observed selectivity so the first scans size their match
	// buffers like the warmed-up base did (a capacity hint only — results
	// never depend on it).
	e.lastSel.Store(base.lastSel.Load())
	for ord := range base.cols {
		if base.pager != nil && base.pager.slots[ord] != nil {
			continue
		}
		// Load the sorted index first: one built implies its column built.
		six := base.sortedIdx[ord].ix.Load()
		old := base.cols[ord].col.Load()
		if old == nil {
			continue
		}
		f := reg.byName[reg.order[ord]]
		inPlace := base.cols[ord].claimed.CompareAndSwap(false, true)
		col := extendColumn(f, old, items, oldN, inPlace)
		slot := &e.cols[ord]
		slot.once.Do(func() { slot.col.Store(col) })
		if six != nil {
			ix := extendSortedIndex(six, col, oldN)
			sslot := &e.sortedIdx[ord]
			sslot.once.Do(func() { sslot.ix.Store(ix) })
		}
	}
	return e, nil
}

// compatibleRegistries checks that next exposes the same column shape as
// base: identical field names and kinds in identical order. Extractor
// equivalence over old rows cannot be checked structurally and remains the
// caller's contract.
func compatibleRegistries[T any](next, base *Registry[T]) error {
	if len(next.order) != len(base.order) {
		return fmt.Errorf("query: append registry has %d fields, base has %d", len(next.order), len(base.order))
	}
	for i, name := range next.order {
		if base.order[i] != name {
			return fmt.Errorf("query: append field %d is %q, base has %q", i, name, base.order[i])
		}
		if nk, bk := next.byName[name].Kind, base.byName[name].Kind; nk != bk {
			return fmt.Errorf("query: append field %q is %s, base has %s", name, nk, bk)
		}
	}
	return nil
}

// extendColumn builds the full-length column from old, the built column of
// the first oldN items: the added rows are extracted as a column of their own
// and written after old's values, and the dictionary and zone maps are
// carried forward (see NewEngineAppend). With inPlace the caller has claimed
// old's planes, and the rows go into their spare capacity; otherwise every
// plane is copied. The result is identical to buildColumn over all items.
// old is never a paged column: its planes are memory a pool lends out again.
func extendColumn[T any](f Field[T], old *column, items []T, oldN int, inPlace bool) *column {
	n := len(items)
	// The tail stays plain: extendDict looks its values up in tail.strs.
	tail := extractColumn(f, items[oldN:])
	c := &column{
		kind:      f.Kind,
		nulls:     newBitset(n),
		nullCount: old.nullCount + tail.nullCount,
		hasNaN:    old.hasNaN || tail.hasNaN,
	}
	// The bitmap is copied, not grown: its last word holds old rows' bits,
	// which base's readers may be reading. The old bitset's stray bits past
	// oldN in that word were never set, so a plain word copy reproduces the
	// prefix exactly.
	copy(c.nulls, old.nulls)
	for i := range n - oldN {
		if tail.nulls.get(i) {
			c.nulls.set(oldN + i)
		}
	}
	switch f.Kind {
	case KindInt:
		c.ints = extend(old.ints, tail.ints, inPlace)
	case KindFloat:
		c.floats = extend(old.floats, tail.floats, inPlace)
	case KindString:
		if !f.Dictionary || old.codes == nil || !c.extendDict(old, tail, oldN, inPlace) {
			c.strs = extend(old.plainStrs(), tail.strs, inPlace)
			if f.Dictionary {
				c.encodeDict()
			}
		}
	case KindBool:
		c.bools = extend(old.bools, tail.bools, inPlace)
	case KindTime:
		c.timeSec = extend(old.timeSec, tail.timeSec, inPlace)
		c.timeNsec = extend(old.timeNsec, tail.timeNsec, inPlace)
		c.timeOff = extend(old.timeOff, tail.timeOff, inPlace)
	}
	var sealed []zone
	if c.hasNaN == old.hasNaN {
		// A segment old filled holds the same rows in the same value order
		// (a dictionary remap is monotone), so its zone stands.
		sealed = old.zones[:min(oldN/segmentSize, len(old.zones))]
	}
	c.buildZonesFrom(sealed)
	return c
}

// extend returns old's values followed by tail's. With inPlace the caller
// owns old's spare capacity, and append writes into it when it has room;
// otherwise old is capped, so append copies it into a fresh array (with room
// for the next epoch). Never nil, like the make([]V, n) of buildColumn.
func extend[V any](old, tail []V, inPlace bool) []V {
	if !inPlace {
		old = slices.Clip(old)
	}
	if out := append(old, tail...); out != nil {
		return out
	}
	return []V{}
}

// plainStrs returns the row values of a string column in plain layout,
// decoding dictionary codes when the column is encoded.
func (c *column) plainStrs() []string {
	if c.codes == nil {
		return c.strs
	}
	strs := make([]string, len(c.codes))
	for i := range strs {
		if !c.nulls.get(i) {
			strs[i] = c.dict[c.codes[i]]
		}
	}
	return strs
}

// extendDict encodes c — whose null bitmap is already complete — as the
// dictionary-encoded column old followed by tail's plain rows (from row oldN
// on), without decoding or re-hashing the old rows: tail's values are looked
// up in old's sorted dictionary and the new ones merged into it in sorted
// order. When every new value sorts after every old one, old's codes stand
// and the dictionary and codes grow at their ends (in place with inPlace, as
// extend does); otherwise old's codes are remapped into a fresh plane through
// the resulting monotone table. Null rows keep code 0, as in encodeDict. It
// reports false, leaving c unencoded, when the union exceeds dictCardLimit —
// encodeDict would keep the plain layout then.
func (c *column) extendDict(old, tail *column, oldN int, inPlace bool) bool {
	var fresh []string
	for i, s := range tail.strs {
		if tail.nulls.get(i) {
			continue
		}
		if _, found := slices.BinarySearch(old.dict, s); !found {
			fresh = append(fresh, s)
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	n := oldN + len(tail.strs)
	card := len(old.dict) + len(fresh)
	if card > dictCardLimit(n) {
		return false
	}
	var dict []string // stays nil for a fully-null column, as in encodeDict
	var codes []uint32
	if len(fresh) == 0 || len(old.dict) == 0 || fresh[0] > old.dict[len(old.dict)-1] {
		// No old code shifts.
		dict, codes = old.dict, old.codes
		if !inPlace {
			dict, codes = slices.Clip(dict), slices.Clip(codes)
		}
		dict = append(dict, fresh...)
	} else {
		// A new value sorts before an old one: old codes shift.
		dict = make([]string, 0, card)
		remap := make([]uint32, len(old.dict))
		j := 0
		for k, s := range old.dict {
			for ; j < len(fresh) && fresh[j] < s; j++ {
				dict = append(dict, fresh[j])
			}
			remap[k] = uint32(len(dict))
			dict = append(dict, s)
		}
		dict = append(dict, fresh[j:]...)
		codes = make([]uint32, oldN, n)
		for i, code := range old.codes {
			if !c.nulls.get(i) {
				codes[i] = remap[code]
			}
		}
	}
	for i, s := range tail.strs {
		var code uint32
		if !tail.nulls.get(i) {
			k, _ := slices.BinarySearch(dict, s)
			code = uint32(k)
		}
		codes = append(codes, code)
	}
	c.dict, c.codes = dict, codes
	return true
}
