package query

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The planner: decide, per compiled filter — per field for the bounds a
// sorted index answers, which merge into one window — whether a secondary
// index can answer it; intersect the resulting posting lists in dataset
// order; run the remaining (residual) predicates as a typed column scan over
// only the candidates; then sort — a bounded top-K selection when a limit
// applies — and materialize rows straight from the column caches.
//
// The contract, enforced by the randomized equivalence suite and the fuzz
// target, is that Scan returns byte-identical Fields/Rows/TotalMatched to
// ScanOracle for every query, order included.

// indexedList is one filter the planner answered from an index: either a
// row slice or a compressed bitmap (dictionary posting lists), never both.
type indexedList struct {
	// rows is fresh, so the scan may keep and mutate it, and never nil: an
	// empty list means no row can match, where matchColumns reads nil
	// candidates as a full scan.
	rows []int32 // ascending dataset order
	bm   *bitmap // compressed row set; may alias the dictionary index
	desc string  // explain fragment, e.g. "sorted(size)" or "bitmap(market)"
}

// size is the list's row count, however it is represented.
func (l *indexedList) size() int {
	if l.bm != nil {
		return l.bm.n
	}
	return len(l.rows)
}

// sortedWindow is the conjunction of every bound one query puts on a
// sorted-indexed field. Each bound matches one contiguous span of the
// value-ordered permutation, so together they match exactly the span
// [lo, hi) — empty when hi <= lo.
type sortedWindow[T any] struct {
	six     *sortedIndex
	lo, hi  int
	filters []compiledFilter[T]
}

// planFilters splits the compiled filters into index-answered row lists and
// residual predicates. == and in on a dictionary-encoded column read its
// code bitmaps. On every other indexed field, == and the range bounds merge
// per field into one sortedWindow first, so `a <= x AND x < b` is one exact
// list instead of two half-open spans, and in unions its operands' equality
// windows. A candidate covering more than half the dataset — a merged window
// counts once, an in-list's windows by their summed lengths — is demoted to
// residual predicates: walking (and materializing) its rows would cost more
// than evaluating the filters inside the candidate scan.
func (e *Engine[T]) planFilters(filters []compiledFilter[T]) (lists []indexedList, residual []compiledFilter[T]) {
	n := len(e.items)
	var windows []sortedWindow[T]
	for _, cf := range filters {
		ord, ok := e.indexedOrd(cf)
		if !ok {
			residual = append(residual, cf)
			continue
		}
		if cf.op == OpEq || cf.op == OpIn {
			if ix := e.dictFor(ord); ix != nil {
				if bm := ix.rowSet(cf.op, cf.operand, cf.operands); bm.n > n/2 {
					residual = append(residual, cf)
				} else {
					lists = append(lists, indexedList{bm: bm, desc: "bitmap(" + cf.field.Name + ")"})
				}
				continue
			}
		}
		six := e.sortedFor(ord)
		if !six.ok {
			residual = append(residual, cf)
			continue
		}
		if cf.op == OpIn {
			// Each operand's window holds one value, so it is ascending in
			// dataset order. total counts a repeated operand's rows each
			// time; the merge dedups them.
			spans := make([][]int32, len(cf.operands))
			total := 0
			for i, operand := range cf.operands {
				lo, hi := six.spanBounds(OpEq, operand)
				spans[i] = six.perm[lo:hi]
				total += hi - lo
			}
			if total > n/2 {
				residual = append(residual, cf)
			} else {
				lists = append(lists, indexedList{rows: mergePostings(spans), desc: "sorted(" + cf.field.Name + ")"})
			}
			continue
		}
		i := slices.IndexFunc(windows, func(w sortedWindow[T]) bool { return w.six == six })
		if i < 0 {
			i = len(windows)
			windows = append(windows, sortedWindow[T]{six: six, hi: len(six.perm)})
		}
		w := &windows[i]
		lo, hi := six.spanBounds(cf.op, cf.operand)
		w.lo, w.hi = max(w.lo, lo), min(w.hi, hi)
		w.filters = append(w.filters, cf)
	}
	for _, w := range windows {
		if w.hi-w.lo > n/2 {
			residual = append(residual, w.filters...)
			continue
		}
		desc := "sorted(" + w.filters[0].field.Name + ")"
		lists = append(lists, indexedList{rows: w.six.spanRows(w.lo, w.hi), desc: desc})
	}
	return lists, residual
}

// indexedOrd returns the registration ordinal of cf's field when a secondary
// index may answer it: cf is an ==, in or range filter on an indexable field.
func (e *Engine[T]) indexedOrd(cf compiledFilter[T]) (int, bool) {
	if e.pager != nil {
		// Paged engines plan without secondary indexes: building one would
		// materialize a column outside the page budget, and a bitmap lookup
		// on an absent index must read as "no index", never as "no rows".
		// Every filter runs as a residual scan over the pinned columns —
		// results are identical, only Explain differs.
		return 0, false
	}
	switch cf.op {
	case OpEq, OpIn, OpLt, OpLe, OpGt, OpGe:
	default:
		return 0, false
	}
	if !cf.field.Indexable {
		return 0, false
	}
	ord, ok := e.ordinals[cf.field.Name]
	return ord, ok
}

// intersectLists intersects posting lists (each ascending) smallest-first,
// returning a slice the caller owns, in dataset order. Bitmap lists
// intersect word-parallel among themselves; a mixed intersection
// materializes the bitmap product once and finishes with the in-place
// row-list merge. Like every list, the result is never nil.
func intersectLists(lists []indexedList) []int32 {
	sort.Slice(lists, func(i, j int) bool { return lists[i].size() < lists[j].size() })
	out, bm := lists[0].rows, lists[0].bm
	for _, l := range lists[1:] {
		if bm != nil {
			if l.bm != nil {
				bm = bmAnd(bm, l.bm)
				continue
			}
			out = bm.rows()
			bm = nil
		}
		if len(out) == 0 {
			break
		}
		if l.bm != nil {
			// Row list already smaller than the bitmap: probe membership.
			kept := out[:0]
			for _, row := range out {
				if l.bm.contains(row) {
					kept = append(kept, row)
				}
			}
			out = kept
			continue
		}
		out = intersect2(out, l.rows)
	}
	if bm != nil {
		return bm.rows()
	}
	return out
}

// intersect2 merges two ascending row lists in place of a (writes into a's
// prefix, which intersectLists owns).
func intersect2(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// zonePruners compiles the zone-map skip tests of a filter set: one
// func(segment) per filter whose column has zones and whose operator admits
// a sound rule. A pruner returning true means the segment provably contains
// no row matching that filter, so (filters being conjunctive) the whole
// segment is skipped.
func (e *Engine[T]) zonePruners(filters []compiledFilter[T]) []func(int) bool {
	var pruners []func(int) bool
	for _, cf := range filters {
		col := e.columnFor(e.ordinals[cf.field.Name])
		if col.zones == nil {
			continue
		}
		if p := zonePruner(col, cf.op, cf.operand, cf.operands, cf.wantNull); p != nil {
			pruners = append(pruners, p)
		}
	}
	return pruners
}

// zonePruner builds one filter's per-segment skip test over a zoned column.
// Bounds checks go through compareOperand on the zone's witness rows, so
// pruning uses exactly the scan's comparison semantics; columns without
// min/max witnesses (unordered kinds, NaN floats, all-null segments) fall
// back to null-count rules only. The test must never skip a segment holding
// a matching row — it may conservatively keep non-matching ones.
func zonePruner(col *column, op Op, operand any, operands []any, wantNull bool) func(int) bool {
	zones := col.zones
	if op == OpIsNull {
		if wantNull {
			return func(s int) bool { return zones[s].nulls == 0 }
		}
		return func(s int) bool { return zones[s].nulls == zones[s].rows }
	}
	// Every other operator matches only non-null rows, so an all-null
	// segment always prunes; the ordered rules below refine that.
	switch op {
	case OpEq:
		return func(s int) bool {
			z := &zones[s]
			if z.nulls == z.rows {
				return true
			}
			return z.minRow >= 0 &&
				(col.compareOperand(int(z.minRow), operand) > 0 ||
					col.compareOperand(int(z.maxRow), operand) < 0)
		}
	case OpNe:
		return func(s int) bool {
			z := &zones[s]
			if z.nulls == z.rows {
				return true
			}
			// Prunable only when every non-null row equals the operand.
			return z.minRow >= 0 &&
				col.compareOperand(int(z.minRow), operand) == 0 &&
				col.compareOperand(int(z.maxRow), operand) == 0
		}
	case OpLt:
		return func(s int) bool {
			z := &zones[s]
			return z.nulls == z.rows ||
				(z.minRow >= 0 && col.compareOperand(int(z.minRow), operand) >= 0)
		}
	case OpLe:
		return func(s int) bool {
			z := &zones[s]
			return z.nulls == z.rows ||
				(z.minRow >= 0 && col.compareOperand(int(z.minRow), operand) > 0)
		}
	case OpGt:
		return func(s int) bool {
			z := &zones[s]
			return z.nulls == z.rows ||
				(z.maxRow >= 0 && col.compareOperand(int(z.maxRow), operand) <= 0)
		}
	case OpGe:
		return func(s int) bool {
			z := &zones[s]
			return z.nulls == z.rows ||
				(z.maxRow >= 0 && col.compareOperand(int(z.maxRow), operand) < 0)
		}
	case OpIn:
		return func(s int) bool {
			z := &zones[s]
			if z.nulls == z.rows {
				return true
			}
			if z.minRow < 0 {
				return false
			}
			for _, operand := range operands {
				if col.compareOperand(int(z.minRow), operand) <= 0 &&
					col.compareOperand(int(z.maxRow), operand) >= 0 {
					return false
				}
			}
			return true
		}
	case OpContains:
		return func(s int) bool { return zones[s].nulls == zones[s].rows }
	}
	return nil
}

// matchColumns runs the filters' kernels over the typed columns. candidates
// nil means the full dataset; on that path, compiled zone pruners first
// decide per segment whether any row can match, whole skipped segments never
// reach a kernel, and the skip/scan tallies land in explain (which may be
// nil). Rows move through the kernels a block at a time, and a full-scan
// block never crosses a segment. Output is ascending dataset order: large
// inputs fan out across CPUs (forChunks) and the parts are concatenated in
// chunk order. The canceler is polled once per block; a cancelled scan joins
// every worker, recycles the chunk buffers and returns ctx.Err().
func (e *Engine[T]) matchColumns(ctx context.Context, filters []compiledFilter[T], candidates []int32, explain *Explain) ([]int32, error) {
	cancel := newCanceler(ctx)
	ks := e.kernels(filters)
	n := len(e.items)
	if candidates != nil {
		n = len(candidates)
	}
	var skip []bool
	if candidates == nil && n > 0 {
		if pruners := e.zonePruners(filters); len(pruners) > 0 {
			skip = make([]bool, (n+segmentSize-1)/segmentSize)
			for s := range skip {
				for _, p := range pruners {
					if p(s) {
						skip[s] = true
						break
					}
				}
			}
			if explain != nil {
				for s, sk := range skip {
					rows := segmentSize
					if (s+1)*segmentSize > n {
						rows = n - s*segmentSize
					}
					if sk {
						explain.SegmentsSkipped++
						explain.SegmentRowsSkipped += rows
					} else {
						explain.SegmentsScanned++
						explain.SegmentRowsScanned += rows
					}
				}
			}
		}
	}
	// scanChunk returns false when it observed cancellation; out is then
	// partial and must be discarded. Each block is laid out as the selection
	// vector in out's spare capacity, so the rows that pass are already in
	// place.
	scanChunk := func(lo, hi int, out []int32) ([]int32, bool) {
		for i := lo; i < hi; {
			end := min(hi, i+blockSize)
			if candidates == nil {
				segEnd := (i/segmentSize + 1) * segmentSize
				if skip != nil && skip[i/segmentSize] {
					i = segEnd
					continue
				}
				end = min(end, segEnd)
			}
			if cancel.hit() {
				return out, false
			}
			out = slices.Grow(out, end-i)
			sel := out[len(out) : len(out)+end-i]
			if candidates != nil {
				copy(sel, candidates[i:end])
			} else {
				for j := range sel {
					sel[j] = int32(i + j)
				}
			}
			out = out[:len(out)+len(runKernels(ks, sel))]
			i = end
		}
		return out, true
	}
	split := chunking(n)
	if split.count == 1 {
		out, ok := scanChunk(0, n, make([]int32, 0, e.capHint(n)))
		if !ok {
			return nil, ctx.Err()
		}
		return out, nil
	}
	var cancelled atomic.Bool
	parts := forChunks(split, func(_, lo, hi int) []int32 {
		buf, _ := e.candPool.Get().([]int32)
		if cap(buf) == 0 {
			buf = make([]int32, 0, e.capHint(hi-lo))
		}
		part, ok := scanChunk(lo, hi, buf[:0])
		if !ok {
			cancelled.Store(true)
		}
		return part
	})
	if cancelled.Load() {
		for _, p := range parts {
			e.candPool.Put(p[:0]) //nolint:staticcheck // slice reuse is the point
		}
		return nil, ctx.Err()
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
		e.candPool.Put(p[:0]) //nolint:staticcheck // slice reuse is the point
	}
	return out, nil
}

// planMatch is the planner's filter stage, shared by Scan and Aggregate:
// index-answered filters become posting lists intersected smallest-first,
// the residual predicates run as a typed column scan over only the
// candidates, and the Explain block records every decision. The returned
// rows are in ascending dataset order. A cancelled context surfaces as
// ctx.Err() from the column scan.
func (e *Engine[T]) planMatch(ctx context.Context, filters []compiledFilter[T]) ([]int32, *Explain, error) {
	n := len(e.items)
	lists, residual := e.planFilters(filters)

	explain := &Explain{DatasetRows: n}
	var matched []int32
	var err error
	if len(lists) == 0 {
		// No usable index: full column scan, the pre-planner row count —
		// minus whole segments the zone maps proved empty, when they ran.
		matched, err = e.matchColumns(ctx, filters, nil, explain)
		explain.Candidates = n
		if len(filters) > 0 {
			explain.ResidualScanned = n
			if explain.SegmentsSkipped+explain.SegmentsScanned > 0 {
				explain.ResidualScanned = explain.SegmentRowsScanned
			}
		}
	} else {
		frags := make([]string, len(lists))
		for i, l := range lists {
			frags[i] = l.desc
		}
		sort.Strings(frags)
		explain.IndexUsed = strings.Join(frags, "+")
		candidates := intersectLists(lists)
		explain.Candidates = len(candidates)
		if len(residual) > 0 {
			matched, err = e.matchColumns(ctx, residual, candidates, explain)
			explain.ResidualScanned = len(candidates)
		} else {
			matched = candidates
		}
	}
	if err != nil {
		return nil, nil, err
	}
	e.observeSelectivity(len(matched), explain.Candidates)
	return matched, explain, nil
}

// scanPlanned is the default Scan executor.
func (e *Engine[T]) scanPlanned(ctx context.Context, pq *prepared[T], start time.Time) (*Result, error) {
	matched, explain, err := e.planMatch(ctx, pq.filters)
	if err != nil {
		return nil, err
	}

	total := len(matched)
	if len(pq.sortFields) > 0 {
		// The sort and materialization stages run after a cancellation
		// point: a request whose deadline died during the match never pays
		// for ordering rows it will not return.
		if cancel := newCanceler(ctx); cancel.hit() {
			return nil, ctx.Err()
		}
		less, nan := e.rowLess(pq.sortKeys, pq.sortOrds, true)
		switch {
		case nan:
			// Top-K or an unstable sort would part from the oracle: run its
			// stable sort on the keys alone, over the same dataset order.
			keyLess, _ := e.rowLess(pq.sortKeys, pq.sortOrds, false)
			sort.SliceStable(matched, func(i, j int) bool { return keyLess(matched[i], matched[j]) })
		case pq.limit > 0 && pq.limit < len(matched):
			matched = topK(matched, pq.limit, less)
		default:
			sort.Slice(matched, func(i, j int) bool { return less(matched[i], matched[j]) })
		}
	}
	if pq.limit > 0 && len(matched) > pq.limit {
		matched = matched[:pq.limit]
	}
	if cancel := newCanceler(ctx); cancel.hit() {
		return nil, ctx.Err()
	}

	return &Result{
		Fields: pq.infos,
		Rows:   e.materializeColumns(matched, pq.outOrds),
		Meta: Meta{
			Scanned:         explain.ResidualScanned,
			TotalMatched:    total,
			Returned:        len(matched),
			QueryTimeMicros: time.Since(start).Microseconds(),
			Explain:         explain,
		},
	}, nil
}

// rowLess builds the order the sort stage uses: the query's sort keys over
// the cached columns (nulls after everything, direction inverted per key),
// ties broken by dataset order when byRow is set. nan reports a key column
// holding NaN, which compares equal to every float, so the order is no
// strict weak order. Otherwise it is a strict total order: sorting by it is
// equivalent to the oracle's stable sort, and it is what makes bounded
// top-K selection exact.
func (e *Engine[T]) rowLess(keys []SortKey, ords []int, byRow bool) (less func(a, b int32) bool, nan bool) {
	cols := make([]*column, len(ords))
	for i, ord := range ords {
		cols[i] = e.columnFor(ord)
		nan = nan || cols[i].hasNaN
	}
	return func(a, b int32) bool {
		for k, col := range cols {
			aNull, bNull := col.nulls.get(int(a)), col.nulls.get(int(b))
			var c int
			switch {
			case aNull && bNull:
				c = 0
			case aNull:
				c = 1
			case bNull:
				c = -1
			default:
				c = col.compareRows(int(a), int(b))
				if keys[k].Desc {
					c = -c
				}
			}
			if c != 0 {
				return c < 0
			}
		}
		return byRow && a < b
	}, nan
}

// materializeColumns builds the output rows from the column caches: one flat
// backing array for all cells, sliced per row, so a K-column × R-row result
// costs O(1) slice allocations instead of R.
func (e *Engine[T]) materializeColumns(matched []int32, ords []int) [][]any {
	cols := make([]*column, len(ords))
	for i, ord := range ords {
		cols[i] = e.columnFor(ord)
	}
	rows := make([][]any, 0, len(matched))
	if len(matched) == 0 {
		return rows
	}
	k := len(ords)
	backing := make([]any, len(matched)*k)
	for ri, m := range matched {
		row := backing[ri*k : (ri+1)*k : (ri+1)*k]
		for ci, col := range cols {
			row[ci] = col.value(int(m))
		}
		rows = append(rows, row)
	}
	return rows
}
