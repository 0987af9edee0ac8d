package query

import (
	"fmt"
	"slices"
)

// NewEngineAppend builds an engine over base's rows followed by added,
// carrying forward the work base already did instead of redoing it over the
// whole corpus. For every typed column base has materialized:
//
//   - old values are copied from the built column; only the added rows go
//     through the boxed extractor;
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
// touched stay lazy on the new engine, exactly as on a cold build, and hash
// indexes always rebuild lazily. So do a paged base's paged columns, even
// resident ones: the build holds no pin, an eviction could hand a resident
// column's memory to another fetch mid-copy, and a plain string column's
// values alias a read buffer its pool lent.
//
// Contract: reg must be shape-compatible with base's registry (same field
// names and kinds, in order; validated here) and every base row must extract
// the same value under reg's extractors as it did under base's — the caller
// asserts that nothing about the old rows changed. Incremental ingest
// guarantees it by re-checking every old listing's enrichment and falling
// back to a cold build the moment anything differs.
//
// base may be serving concurrent scans throughout: the build only loads the
// atomic column and sorted-index pointers and reads immutable
// columns/indexes/items, never base's lazy-build state.
//
// The result is indistinguishable from NewEngine(reg, all), internal layout
// included: every carried column, dictionary, zone map and sorted index is
// identical to the one a cold build would produce, so every scan and
// aggregate is byte-identical to the cold engine's. Old rows are never
// re-extracted or re-sorted, but an append still costs O(corpus): old values
// are copied (and dictionary codes remapped when a new value sorts before an
// old one), each carried permutation is copied, and a dictionary-hinted
// column in plain layout re-runs encodeDict over every row.
func NewEngineAppend[T any](reg *Registry[T], base *Engine[T], added []T) (*Engine[T], error) {
	if base == nil {
		return nil, fmt.Errorf("query: NewEngineAppend with nil base engine")
	}
	if err := compatibleRegistries(reg, base.reg); err != nil {
		return nil, err
	}
	items := make([]T, 0, len(base.items)+len(added))
	items = append(items, base.items...)
	items = append(items, added...)
	e := NewEngine(reg, items)
	// Carry the observed selectivity so the first scans size their match
	// buffers like the warmed-up base did (a capacity hint only — results
	// never depend on it).
	e.lastSel.Store(base.lastSel.Load())
	oldN := len(base.items)
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
		col := extendColumn(f, old, items, oldN)
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
// the first oldN items: old values are copied, the added rows are extracted
// as a column of their own and appended, and the dictionary and zone maps
// are carried forward (see NewEngineAppend). The result is identical to
// buildColumn over all items. old is never a paged column: the string
// headers copied here would alias a buffer its pool lends out again.
func extendColumn[T any](f Field[T], old *column, items []T, oldN int) *column {
	n := len(items)
	// The tail stays plain: extendDict looks its values up in tail.strs.
	tail := extractColumn(f, items[oldN:])
	c := &column{
		kind:      f.Kind,
		nulls:     newBitset(n),
		nullCount: old.nullCount + tail.nullCount,
		hasNaN:    old.hasNaN || tail.hasNaN,
	}
	// The old bitset's stray bits past oldN in its last word were never set,
	// so a plain word copy reproduces the prefix exactly.
	copy(c.nulls, old.nulls)
	for i := range n - oldN {
		if tail.nulls.get(i) {
			c.nulls.set(oldN + i)
		}
	}
	switch f.Kind {
	case KindInt:
		c.ints = concat(old.ints, tail.ints)
	case KindFloat:
		c.floats = concat(old.floats, tail.floats)
	case KindString:
		if !f.Dictionary || old.codes == nil || !c.extendDict(old, tail, oldN) {
			c.strs = concat(old.plainStrs(), tail.strs)
			if f.Dictionary {
				c.encodeDict()
			}
		}
	case KindBool:
		c.bools = concat(old.bools, tail.bools)
	case KindTime:
		c.timeSec = concat(old.timeSec, tail.timeSec)
		c.timeNsec = concat(old.timeNsec, tail.timeNsec)
		c.timeOff = concat(old.timeOff, tail.timeOff)
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

// concat returns a fresh slice holding a then b; never nil, like the
// make([]V, n) of buildColumn.
func concat[V any](a, b []V) []V {
	out := make([]V, len(a)+len(b))
	copy(out[copy(out, a):], b)
	return out
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
// up in old's sorted dictionary, the new ones merged into it in sorted
// order, and old's codes remapped through the resulting monotone table
// (copied as they are when every new value sorts last). Null rows keep code
// 0, as in encodeDict. It reports false, leaving c unencoded, when the union
// exceeds dictCardLimit — encodeDict would keep the plain layout then.
func (c *column) extendDict(old, tail *column, oldN int) bool {
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
	if card > 0 {
		dict = make([]string, 0, card)
	}
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
	codes := make([]uint32, n)
	copy(codes, old.codes)
	if j > 0 { // a new value sorts before an old one: old codes shift
		for i := range oldN {
			if !c.nulls.get(i) {
				codes[i] = remap[codes[i]]
			}
		}
	}
	for i, s := range tail.strs {
		if !tail.nulls.get(i) {
			k, _ := slices.BinarySearch(dict, s)
			codes[oldN+i] = uint32(k)
		}
	}
	c.dict, c.codes = dict, codes
	return true
}
