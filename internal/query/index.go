package query

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Secondary indexes over typed columns. Both are built lazily (at most once
// per engine and field, under sync.Once) from the field's column cache and
// are immutable afterwards:
//
//   - dictIndex: one compressed bitmap per code of a dictionary-encoded
//     string column, for == and in on it.
//   - sortedIndex: a permutation of the non-null rows ordered by value, so
//     range predicates on any column, and == and in on every column without
//     a dictionary, binary-search to contiguous spans.
//
// Null rows appear in neither structure, which encodes the SQL null rule for
// free: a comparison never matches a null row.

// dictIndex is the equality index of a dictionary-encoded string column:
// dict aliases the column's sorted dictionary (operands binary-search into
// it) and dictBMs[k] is the row set of dict[k]. == then answers with a single
// bitmap, in with a bitmap union, and conjunctions intersect word-parallel.
type dictIndex struct {
	dict    []string
	dictBMs []*bitmap
}

type dictSlot struct {
	once sync.Once
	ix   *dictIndex
}

// buildDictIndex returns nil for a column without a dictionary: a plain
// string column, or a dictionary-hinted one in plain layout or fully null.
func buildDictIndex(c *column) *dictIndex {
	if c.dict == nil {
		return nil
	}
	ix := &dictIndex{dict: c.dict, dictBMs: make([]*bitmap, len(c.dict))}
	for k := range ix.dictBMs {
		ix.dictBMs[k] = &bitmap{}
	}
	for i := range c.codes {
		if !c.nulls.get(i) {
			ix.dictBMs[c.codes[i]].add(int32(i))
		}
	}
	return ix
}

// dictBM returns the posting bitmap of one string operand, nil when the
// operand is not in the dictionary (no row can match it).
func (ix *dictIndex) dictBM(operand any) *bitmap {
	if k, exact := dictCode(ix.dict, operand.(string)); exact {
		return ix.dictBMs[k]
	}
	return nil
}

// rowSet returns the rows an == (operand) or in (operands) filter matches:
// one operand's bitmap, shared with the index, or a fresh union, whose OR
// costs O(result words) and gives the exact, duplicate-free count the
// demotion check needs. An operand absent from the dictionary matches no
// row.
func (ix *dictIndex) rowSet(op Op, operand any, operands []any) *bitmap {
	if op == OpEq {
		if bm := ix.dictBM(operand); bm != nil {
			return bm
		}
		return &bitmap{}
	}
	bms := make([]*bitmap, len(operands))
	for i, operand := range operands {
		bms[i] = ix.dictBM(operand)
	}
	return bmOrAll(bms)
}

// mergePostings unions several row lists (the in operator's equality
// windows) into a fresh ascending, duplicate-free row list; duplicate
// operands in the in-list must not double-count rows. Each list is
// ascending, so its ends bound the bitset rowOrder sets the rows in.
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

// buildSortedIndex orders every kind. A float column holding NaN gets an
// index that is not ok: compareValues treats NaN as equal to everything,
// which is no order a permutation can hold.
func buildSortedIndex(c *column) *sortedIndex {
	ix := &sortedIndex{col: c, ok: !c.hasNaN}
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
	ix := &sortedIndex{col: c, ok: !c.hasNaN}
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
// ascending dataset order; an empty or inverted window yields no rows. A
// window holding one value (an == window) lists its rows in dataset order
// already, so it is copied instead of set and read back through a bitset.
func (ix *sortedIndex) spanRows(lo, hi int) []int32 {
	if lo >= hi {
		return []int32{}
	}
	span := ix.perm[lo:hi]
	if ix.col.compareRows(int(span[0]), int(span[len(span)-1])) == 0 {
		return slices.Clone(span)
	}
	first, last := span[0], span[0]
	for _, row := range span[1:] {
		first, last = min(first, row), max(last, row)
	}
	return rowOrder(first, last, span)
}

// dictFor / sortedFor build (at most once) the indexes of the field at
// registration ordinal ord.
func (e *Engine[T]) dictFor(ord int) *dictIndex {
	slot := &e.dicts[ord]
	slot.once.Do(func() { slot.ix = buildDictIndex(e.columnFor(ord)) })
	return slot.ix
}

func (e *Engine[T]) sortedFor(ord int) *sortedIndex {
	slot := &e.sortedIdx[ord]
	slot.once.Do(func() { slot.ix.Store(buildSortedIndex(e.columnFor(ord))) })
	return slot.ix.Load()
}
