package query

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Secondary indexes over typed columns. Both are built lazily (at most once
// per engine and field, under sync.Once) from the field's column cache and
// are immutable afterwards:
//
//   - hashIndex: value -> posting list of row ids in dataset order, for ==
//     and in on low-cardinality string/int/bool fields.
//   - sortedIndex: a permutation of the non-null rows ordered by value, so
//     range predicates (and == on kinds the hash index does not cover)
//     binary-search to a contiguous span.
//
// Null rows appear in neither structure, which encodes the SQL null rule for
// free: a comparison never matches a null row.

// hashable reports whether a kind gets a hash index. Floats are excluded
// because compareValues treats NaN as equal to everything, which map-key
// equality cannot reproduce; times are excluded because their natural map
// key (UnixNano) overflows for extreme years the comparison semantics still
// support.
func hashable(k Kind) bool { return k == KindString || k == KindInt || k == KindBool }

// sortable reports whether a kind gets a sorted index (every ordered kind;
// bools only ever see ==/!= which the hash index covers).
func sortable(k Kind) bool {
	return k == KindString || k == KindInt || k == KindFloat || k == KindTime
}

type hashIndex struct {
	ok    bool
	ints  map[int64][]int32
	strs  map[string][]int32
	boolT []int32
	boolF []int32

	// Dictionary-encoded string columns replace the strs map with one
	// compressed bitmap per dictionary code: dict aliases the column's
	// sorted dictionary (operands binary-search into it) and dictBMs[k] is
	// the row set of dict[k]. == then answers with a single bitmap, in with
	// a bitmap union, and conjunctions intersect word-parallel.
	dict    []string
	dictBMs []*bitmap
}

type hashSlot struct {
	once sync.Once
	ix   *hashIndex
}

func buildHashIndex(c *column) *hashIndex {
	ix := &hashIndex{ok: hashable(c.kind)}
	if !ix.ok {
		return ix
	}
	switch c.kind {
	case KindInt:
		ix.ints = make(map[int64][]int32)
		for i := range c.ints {
			if !c.nulls.get(i) {
				ix.ints[c.ints[i]] = append(ix.ints[c.ints[i]], int32(i))
			}
		}
	case KindString:
		if c.dict != nil {
			ix.dict = c.dict
			ix.dictBMs = make([]*bitmap, len(c.dict))
			for k := range ix.dictBMs {
				ix.dictBMs[k] = &bitmap{}
			}
			for i := range c.codes {
				if !c.nulls.get(i) {
					ix.dictBMs[c.codes[i]].add(int32(i))
				}
			}
			break
		}
		ix.strs = make(map[string][]int32)
		for i := range c.strs {
			if !c.nulls.get(i) {
				ix.strs[c.strs[i]] = append(ix.strs[c.strs[i]], int32(i))
			}
		}
	case KindBool:
		for i := range c.bools {
			if c.nulls.get(i) {
				continue
			}
			if c.bools[i] {
				ix.boolT = append(ix.boolT, int32(i))
			} else {
				ix.boolF = append(ix.boolF, int32(i))
			}
		}
	}
	return ix
}

// postings returns the rows equal to one normalized operand, ascending in
// dataset order. The returned slice is shared index state: callers must not
// mutate it.
func (ix *hashIndex) postings(operand any) []int32 {
	switch v := operand.(type) {
	case int64:
		return ix.ints[v]
	case string:
		return ix.strs[v]
	case bool:
		if v {
			return ix.boolT
		}
		return ix.boolF
	}
	return nil
}

// dictBM returns the posting bitmap of one string operand on a
// dictionary-backed index, nil when the operand is not in the dictionary
// (no row can match it).
func (ix *hashIndex) dictBM(operand any) *bitmap {
	s, ok := operand.(string)
	if !ok {
		return nil
	}
	if k, exact := dictCode(ix.dict, s); exact {
		return ix.dictBMs[k]
	}
	return nil
}

// mergePostings unions several posting lists (the in operator) into a fresh
// ascending, duplicate-free row list; duplicate operands in the in-list must
// not double-count rows. Each list is ascending, so its ends bound the
// bitset rowOrder sets the rows in.
func mergePostings(lists [][]int32) []int32 {
	first, last := int32(math.MaxInt32), int32(-1)
	for _, l := range lists {
		if len(l) > 0 {
			first, last = min(first, l[0]), max(last, l[len(l)-1])
		}
	}
	return rowOrder(first, last, lists...)
}

// rowOrder returns the distinct rows of lists in ascending dataset order.
// Every row lies in [first, last]; the rows are set in a bitset covering only
// the words between those two and read back in order, which costs
// O(rows + (last-first)/64) where a sort costs O(rows log rows). The result
// is never nil, even when there are no rows (last < first).
func rowOrder(first, last int32, lists ...[]int32) []int32 {
	if last < first {
		return []int32{}
	}
	base := first &^ 63
	set := newBitset(int(last-base) + 1)
	total := 0
	for _, l := range lists {
		total += len(l)
		for _, row := range l {
			set.set(int(row - base))
		}
	}
	out := make([]int32, 0, total)
	for w, word := range set {
		for word != 0 {
			out = append(out, base+int32(w<<6)+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

type sortedIndex struct {
	ok   bool
	col  *column
	perm []int32 // non-null rows ordered by (value asc, row asc)
}

// sortedSlot is the lazy holder of one field's sorted index. Like
// colSlot.col, the pointer is atomic so NewEngineAppend can see which
// indexes a live engine has built without racing the sync.Once that builds
// them.
type sortedSlot struct {
	once sync.Once
	ix   atomic.Pointer[sortedIndex]
}

func buildSortedIndex(c *column) *sortedIndex {
	ix := &sortedIndex{col: c, ok: sortable(c.kind) && !c.hasNaN}
	if ix.ok {
		ix.perm = sortedRows(c, 0, columnLen(c))
	}
	return ix
}

// sortedRows returns the non-null rows of c in [lo, hi) ordered by
// (value asc, row asc).
func sortedRows(c *column, lo, hi int) []int32 {
	rows := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if !c.nulls.get(i) {
			rows = append(rows, int32(i))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if cmp := c.compareRows(int(a), int(b)); cmp != 0 {
			return cmp < 0
		}
		return a < b
	})
	return rows
}

// extendSortedIndex carries base, the sorted index over the first oldN rows
// of c, forward to all of c: only the rows from oldN on are sorted, then
// each is placed after every base row of lower or equal value — its row id
// is larger than theirs — which is exactly buildSortedIndex(c)'s
// (value, row) order at O(added log n) comparisons plus one copy of the
// permutation. c's old rows must hold base's values in base's order (a
// dictionary remap is monotone, so it qualifies); a NaN arriving with the
// added rows leaves an index that is not ok, as a cold build would.
func extendSortedIndex(base *sortedIndex, c *column, oldN int) *sortedIndex {
	ix := &sortedIndex{col: c, ok: sortable(c.kind) && !c.hasNaN}
	if !ix.ok {
		return ix
	}
	added := sortedRows(c, oldN, columnLen(c))
	old := base.perm
	perm := make([]int32, 0, len(old)+len(added))
	for _, row := range added {
		k := sort.Search(len(old), func(k int) bool { return c.compareRows(int(old[k]), int(row)) > 0 })
		perm = append(append(perm, old[:k]...), row)
		old = old[k:]
	}
	ix.perm = append(perm, old...)
	return ix
}

func columnLen(c *column) int {
	switch c.kind {
	case KindInt:
		return len(c.ints)
	case KindFloat:
		return len(c.floats)
	case KindString:
		// A fully-null dictionary column has dict == nil with row-counted
		// codes; len(codes) is the row count whenever codes exist.
		if c.dict != nil || c.codes != nil {
			return len(c.codes)
		}
		return len(c.strs)
	case KindBool:
		return len(c.bools)
	case KindTime:
		return len(c.timeSec)
	}
	return 0
}

// spanBounds locates the permutation window satisfying `value <op> operand`
// by binary search, without materializing it — the planner checks the
// window's size against its demotion threshold before paying for the copy.
// Valid ops: ==, <, <=, >, >=.
func (ix *sortedIndex) spanBounds(op Op, operand any) (lo, hi int) {
	n := len(ix.perm)
	// firstGE / firstGT locate the operand's window in value order.
	firstGE := sort.Search(n, func(k int) bool {
		return ix.col.compareOperand(int(ix.perm[k]), operand) >= 0
	})
	firstGT := sort.Search(n, func(k int) bool {
		return ix.col.compareOperand(int(ix.perm[k]), operand) > 0
	})
	switch op {
	case OpEq:
		return firstGE, firstGT
	case OpLt:
		return 0, firstGE
	case OpLe:
		return 0, firstGT
	case OpGt:
		return firstGT, n
	case OpGe:
		return firstGE, n
	}
	return 0, 0
}

// spanRows materializes the permutation window [lo, hi) as a fresh slice in
// ascending dataset order; an empty or inverted window yields no rows.
func (ix *sortedIndex) spanRows(lo, hi int) []int32 {
	if lo >= hi {
		return []int32{}
	}
	span := ix.perm[lo:hi]
	first, last := span[0], span[0]
	for _, row := range span[1:] {
		first, last = min(first, row), max(last, row)
	}
	return rowOrder(first, last, span)
}

// hashFor / sortedFor build (at most once) the indexes of the field at
// registration ordinal ord.
func (e *Engine[T]) hashFor(ord int) *hashIndex {
	slot := &e.hashes[ord]
	slot.once.Do(func() { slot.ix = buildHashIndex(e.columnFor(ord)) })
	return slot.ix
}

func (e *Engine[T]) sortedFor(ord int) *sortedIndex {
	slot := &e.sortedIdx[ord]
	slot.once.Do(func() { slot.ix.Store(buildSortedIndex(e.columnFor(ord))) })
	return slot.ix.Load()
}
