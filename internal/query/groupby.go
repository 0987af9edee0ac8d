package query

import (
	"context"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"marketscope/internal/pipeline"
)

// The planned grouped-aggregation executor: the request filters run through
// the same planner stage as a scan (posting lists, intersection, residual
// column scan), the matched rows are grouped in parallel per-chunk with the
// chunk partials merged in chunk order — so every group's row list is in
// ascending dataset order and groups appear in first-occurrence order,
// exactly as the oracle's sequential pass produces them — and the per-group
// cells compute over the typed columns, fanned out across CPUs group by
// group. Because each group's rows are visited in the same order the oracle
// visits them, even float sums are bit-identical, not merely close.

// colGroup is one group on the planned path.
type colGroup struct {
	firstRow int32 // first matched row, for group-key materialization
	rows     []int32
}

// aggregatePlanned is the default Aggregate executor. The match, group and
// per-group fold stages poll the context at chunk (respectively group)
// boundaries; a cancelled request joins every worker and returns ctx.Err().
func (e *Engine[T]) aggregatePlanned(ctx context.Context, pa *preparedAgg[T], start time.Time) (*Result, error) {
	matched, explain, err := e.planMatch(ctx, pa.filters)
	if err != nil {
		return nil, err
	}
	groups, err := e.groupRows(ctx, pa, matched)
	if err != nil {
		return nil, err
	}

	// Compile each spec's machinery once: the where-predicates and value
	// column are shared (read-only) by every group worker.
	cells := make([]*aggCellFn, len(pa.specs))
	for s := range pa.specs {
		cells[s] = e.compileAggCell(&pa.specs[s], len(matched))
	}

	// Groups are independent (each writes only its slot) and their order is
	// fixed before the fan-out, so the output is deterministic. Every group
	// checks cancellation before it is filled.
	cancel := newCanceler(ctx)
	rows := make([][]any, len(groups))
	workers := 1
	if len(matched) >= parallelThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	var cancelled atomic.Bool
	pipeline.ForEach(len(groups), workers, func(gi int) {
		if cancel.hit() {
			cancelled.Store(true)
			return
		}
		g := groups[gi]
		out := make([]any, 0, len(pa.infos))
		for _, ord := range pa.groupOrds {
			out = append(out, e.columnFor(ord).typed(int(g.firstRow)))
		}
		for _, c := range cells {
			out = append(out, c.compute(g.rows))
		}
		rows[gi] = out
	})
	if cancelled.Load() {
		return nil, ctx.Err()
	}

	sortAggRows(rows, pa)
	if pa.limit > 0 && len(rows) > pa.limit {
		rows = rows[:pa.limit]
	}
	emitAggRows(rows)

	return &Result{
		Fields: pa.infos,
		Rows:   rows,
		Meta: Meta{
			Scanned:         explain.ResidualScanned,
			TotalMatched:    len(matched),
			Returned:        len(rows),
			QueryTimeMicros: time.Since(start).Microseconds(),
			Explain:         explain,
		},
	}, nil
}

// groupRows partitions the matched rows into groups keyed by the encoded
// group-by values: parallel per-chunk partial grouping above the scan
// threshold, merged in chunk order so group order (first occurrence) and
// per-group row order (ascending) match the oracle's sequential pass.
func (e *Engine[T]) groupRows(ctx context.Context, pa *preparedAgg[T], matched []int32) ([]*colGroup, error) {
	if len(pa.groupFields) == 0 {
		return []*colGroup{{rows: matched}}, nil
	}
	cancel := newCanceler(ctx)
	groupCols := make([]*column, len(pa.groupOrds))
	for i, ord := range pa.groupOrds {
		groupCols[i] = e.columnFor(ord)
	}
	if keyAt, keyBits, ok := packedKeyer(groupCols); ok {
		return groupRowsPacked(ctx, cancel, matched, keyAt, keyBits)
	}
	return groupRowsBytes(ctx, cancel, matched, groupCols)
}

// hashedChunk is one chunk's partial grouping on a hash path: keys in
// first-occurrence order plus the rows collected under each.
type hashedChunk[K comparable] struct {
	keys []K
	rows [][]int32
}

// groupHashed runs a hash path's per-chunk grouping on every chunk of n
// matched rows and merges the chunks in chunk order, keys in chunk-local
// first-occurrence order: concatenating each group's per-chunk row lists in
// that order reassembles ascending dataset order. groupChunk returns nil for
// a chunk abandoned to cancellation.
func groupHashed[K comparable](ctx context.Context, n int, groupChunk func(w, lo, hi int) *hashedChunk[K]) ([]*colGroup, error) {
	chunks := forChunks(chunking(n), groupChunk)
	for _, ch := range chunks {
		if ch == nil {
			return nil, ctx.Err()
		}
	}
	index := map[K]int{}
	var groups []*colGroup
	for _, ch := range chunks {
		for ki, key := range ch.keys {
			gi, ok := index[key]
			if !ok {
				gi = len(groups)
				index[key] = gi
				groups = append(groups, &colGroup{firstRow: ch.rows[ki][0]})
			}
			groups[gi].rows = append(groups[gi].rows, ch.rows[ki]...)
		}
	}
	return groups, nil
}

// groupRowsBytes is groupRows' general path: each row's group key is the
// byte encoding of its values in groupCols, grouped through a string map
// per chunk.
func groupRowsBytes(ctx context.Context, cancel canceler, matched []int32, groupCols []*column) ([]*colGroup, error) {
	// The string map lives in the chunk's struct, where the packed map path
	// keeps its uint64 map local: TestPackedGroupKeysWithBools' allocation
	// margin between the two routes is one allocation.
	type byteChunk struct {
		hashedChunk[string]
		index map[string]int
	}
	return groupHashed(ctx, len(matched), func(_, lo, hi int) *hashedChunk[string] {
		ch := &byteChunk{index: map[string]int{}}
		var buf []byte
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && cancel.hit() {
				return nil
			}
			row := int(matched[i])
			buf = buf[:0]
			for _, col := range groupCols {
				buf = col.appendKey(buf, row)
			}
			gi, ok := ch.index[string(buf)]
			if !ok {
				gi = len(ch.keys)
				key := string(buf)
				ch.index[key] = gi
				ch.keys = append(ch.keys, key)
				ch.rows = append(ch.rows, nil)
			}
			ch.rows[gi] = append(ch.rows[gi], matched[i])
		}
		return &ch.hashedChunk
	})
}

// packedKeyer returns a per-row group-key packer when every group column is
// dictionary-encoded or bool and the widths fit one uint64: a dictionary
// column contributes bits.Len(len(dict)) bits holding 0 for null or code+1
// otherwise, a bool column 2 bits holding 0 for null, 1 for false and 2 for
// true, so distinct value tuples map to distinct keys. Grouping then hashes
// machine words instead of encoded byte strings — the dictionary payoff for
// group-by. keyBits is the total packed width (every key is
// < 1<<keyBits), letting the caller pick a dense table over a hash map when
// the key space is small. ok is false (caller falls back to byte keys) when
// any column is of another layout or the widths overflow.
func packedKeyer(groupCols []*column) (keyAt func(int) uint64, keyBits int, ok bool) {
	shift := 0
	shifts := make([]int, len(groupCols))
	for i, col := range groupCols {
		shifts[i] = shift
		switch {
		case col.dict != nil:
			shift += bits.Len(uint(len(col.dict)))
		case col.kind == KindBool:
			shift += 2
		default:
			return nil, 0, false
		}
	}
	if shift > 64 {
		return nil, 0, false
	}
	return func(row int) uint64 {
		var key uint64
		for i, col := range groupCols {
			if col.nulls.get(row) {
				continue
			}
			var v uint64
			if col.dict != nil {
				v = uint64(col.codes[row]) + 1
			} else {
				v = uint64(1 + b2i(col.bools[row]))
			}
			key |= v << shifts[i]
		}
		return key
	}, shift, true
}

// denseKeyBits caps the packed key width for which grouping uses a direct
// slot table (one int32 per possible key, zeroed per chunk) instead of a
// hash map. 16 bits is a 256 KiB table per worker — cheap to clear relative
// to any chunk large enough to want it, and covers every realistic
// dictionary group-by (e.g. market × category packs into ~10 bits).
const denseKeyBits = 16

// groupRowsPacked is groupRows' fast path over packed uint64 group keys.
// Small key spaces take the dense counting-sort path; wide keys group
// through a uint64 map per chunk and merge through groupHashed, as the
// byte-key path does. Both split the rows with chunking and merge in chunk
// order, so group order (first occurrence) and per-group row order
// (ascending) are bit-identical to the byte-key path and the oracle, and
// the choice never shows in results.
func groupRowsPacked(ctx context.Context, cancel canceler, matched []int32, keyAt func(int) uint64, keyBits int) ([]*colGroup, error) {
	if keyBits <= denseKeyBits && 1<<keyBits <= 8*len(matched) {
		return groupRowsPackedDense(ctx, cancel, matched, keyAt, keyBits)
	}
	return groupHashed(ctx, len(matched), func(_, lo, hi int) *hashedChunk[uint64] {
		index := map[uint64]int32{}
		ch := &hashedChunk[uint64]{}
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && cancel.hit() {
				return nil
			}
			key := keyAt(int(matched[i]))
			gi, ok := index[key]
			if !ok {
				gi = int32(len(ch.keys))
				index[key] = gi
				ch.keys = append(ch.keys, key)
				ch.rows = append(ch.rows, nil)
			}
			ch.rows[gi] = append(ch.rows[gi], matched[i])
		}
		return ch
	})
}

// groupRowsPackedDense groups through a two-pass counting sort: pass one
// counts rows per packed key per chunk (a dense int32 table — no hashing),
// the merge turns counts into exact offsets inside one shared backing array,
// and pass two writes each row straight to its slot. No per-group append
// growth, no merge copying — the layout every aggregate cell then walks is a
// single contiguous allocation.
//
// Output is bit-identical to the map paths: the merge visits chunks in order
// and each chunk's keys in first-occurrence order, which IS global
// first-occurrence order (a key's first chunk sees its globally first row),
// and the per-chunk write cursors stack chunk 0's rows before chunk 1's, so
// per-group rows stay ascending.
func groupRowsPackedDense(ctx context.Context, cancel canceler, matched []int32, keyAt func(int) uint64, keyBits int) ([]*colGroup, error) {
	// Pass one records every row's key in scratch (keyBits <= 16, so uint16
	// holds any key) — pass two replays it with a plain load instead of
	// re-deriving codes from the dictionary columns.
	scratch := make([]uint16, len(matched))
	type chunkCounts struct {
		keys   []uint64 // first-occurrence order within the chunk
		counts []int32  // dense per-key row count
	}
	split := chunking(len(matched))
	chunks := forChunks(split, func(_, lo, hi int) *chunkCounts {
		ch := &chunkCounts{counts: make([]int32, 1<<keyBits)}
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && cancel.hit() {
				return nil
			}
			key := keyAt(int(matched[i]))
			scratch[i] = uint16(key)
			if ch.counts[key] == 0 {
				ch.keys = append(ch.keys, key)
			}
			ch.counts[key]++
		}
		return ch
	})
	for _, ch := range chunks {
		if ch == nil {
			return nil, ctx.Err()
		}
	}

	// Merge: assign group indexes in global first-occurrence order, then lay
	// the groups out back to back in one backing array, with a write cursor
	// per (chunk, group) so chunks fill disjoint ranges concurrently.
	slot := make([]int32, 1<<keyBits) // 0 = empty, else group index + 1
	var keys []uint64
	for _, ch := range chunks {
		for _, key := range ch.keys {
			if slot[key] == 0 {
				keys = append(keys, key)
				slot[key] = int32(len(keys))
			}
		}
	}
	starts := make([]int32, len(keys)+1)
	cursors := make([][]int32, len(chunks))
	for w := range chunks {
		cursors[w] = make([]int32, len(keys))
	}
	for g, key := range keys {
		pos := starts[g]
		for w, ch := range chunks {
			cursors[w][g] = pos
			pos += ch.counts[key]
		}
		starts[g+1] = pos
	}

	backing := make([]int32, len(matched))
	filled := forChunks(split, func(w, lo, hi int) bool {
		cur := cursors[w]
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && cancel.hit() {
				return false
			}
			g := slot[scratch[i]] - 1
			backing[cur[g]] = matched[i]
			cur[g]++
		}
		return true
	})
	for _, ok := range filled {
		if !ok {
			return nil, ctx.Err()
		}
	}

	groups := make([]*colGroup, len(keys))
	for g := range groups {
		rows := backing[starts[g]:starts[g+1]:starts[g+1]]
		groups[g] = &colGroup{firstRow: rows[0], rows: rows}
	}
	return groups, nil
}

// aggCellFn computes one aggregate cell from a group's row list over the
// typed columns. compute is safe for concurrent calls on distinct groups.
type aggCellFn struct {
	compute func(rows []int32) any
}

// compileAggCell builds the typed per-group evaluator of one spec — the
// columnar mirror of oracleCell, computing the same arithmetic in the same
// row order. The spec's where filters run as residual kernels over each
// group's rows, a block at a time, and the cell folds the rows that pass.
func (e *Engine[T]) compileAggCell(ca *compiledAgg[T], totalMatched int) *aggCellFn {
	where := e.kernels(ca.where)
	var col *column
	if ca.ord >= 0 {
		col = e.columnFor(ca.ord)
	}

	switch ca.op {
	case AggCount:
		return &aggCellFn{compute: func(rows []int32) any {
			n := 0
			eachPassing(where, rows, func(sel []int32) {
				if col == nil || col.nullCount == 0 {
					n += len(sel)
					return
				}
				for _, r := range sel {
					if !col.nulls.get(int(r)) {
						n++
					}
				}
			})
			return int64(n)
		}}
	case AggShare:
		return &aggCellFn{compute: func(rows []int32) any {
			n := 0
			eachPassing(where, rows, func(sel []int32) { n += len(sel) })
			if totalMatched == 0 {
				return float64(0)
			}
			return float64(n) / float64(totalMatched)
		}}
	case AggSum, AggMean:
		mean := ca.op == AggMean
		kind := ca.field.Kind
		return &aggCellFn{compute: func(rows []int32) any {
			var sumInt int64
			var sumFloat float64
			n := 0
			eachPassing(where, rows, func(sel []int32) {
				for _, r := range sel {
					row := int(r)
					if col.nulls.get(row) {
						continue
					}
					switch kind {
					case KindInt:
						sumInt += col.ints[row]
					case KindFloat:
						sumFloat += col.floats[row]
					case KindBool:
						if col.bools[row] {
							sumInt++
						}
					}
					n++
				}
			})
			if n == 0 {
				return nil
			}
			if !mean {
				if kind == KindFloat {
					return sumFloat
				}
				return sumInt
			}
			if kind == KindFloat {
				return sumFloat / float64(n)
			}
			return float64(sumInt) / float64(n)
		}}
	case AggMin, AggMax:
		min := ca.op == AggMin
		return &aggCellFn{compute: func(rows []int32) any {
			best := -1
			eachPassing(where, rows, func(sel []int32) {
				for _, r := range sel {
					row := int(r)
					if col.nulls.get(row) {
						continue
					}
					if best < 0 {
						best = row
						continue
					}
					c := col.compareRows(row, best)
					if (min && c < 0) || (!min && c > 0) {
						best = row
					}
				}
			})
			if best < 0 {
				return nil
			}
			return col.typed(best)
		}}
	case AggDistinct:
		if col.dict != nil {
			// Distinct values are distinct codes: a flat bool table over the
			// dictionary replaces the map of encoded keys.
			return &aggCellFn{compute: func(rows []int32) any {
				seen := make([]bool, len(col.dict))
				n := 0
				eachPassing(where, rows, func(sel []int32) {
					for _, r := range sel {
						row := int(r)
						if col.nulls.get(row) {
							continue
						}
						if !seen[col.codes[row]] {
							seen[col.codes[row]] = true
							n++
						}
					}
				})
				return int64(n)
			}}
		}
		return &aggCellFn{compute: func(rows []int32) any {
			seen := map[string]bool{}
			var buf []byte
			eachPassing(where, rows, func(sel []int32) {
				for _, r := range sel {
					row := int(r)
					if col.nulls.get(row) {
						continue
					}
					buf = col.appendKey(buf[:0], row)
					if !seen[string(buf)] {
						seen[string(buf)] = true
					}
				}
			})
			return int64(len(seen))
		}}
	case AggTopK:
		kind := ca.field.Kind
		k := ca.k
		if col.dict != nil {
			// Count per dictionary code; code order is value order, so the
			// ranking comparator needs no string compares, and the first-row
			// tiebreak is unreachable (one entry per distinct value).
			return &aggCellFn{compute: func(rows []int32) any {
				counts := make([]int, len(col.dict))
				eachPassing(where, rows, func(sel []int32) {
					for _, r := range sel {
						row := int(r)
						if !col.nulls.get(row) {
							counts[col.codes[row]]++
						}
					}
				})
				var live []int
				for code, c := range counts {
					if c > 0 {
						live = append(live, code)
					}
				}
				if len(live) == 0 {
					return nil
				}
				return renderTopK(len(live), k,
					func(i, j int) int {
						ci, cj := counts[live[i]], counts[live[j]]
						if ci != cj {
							if ci > cj {
								return -1
							}
							return 1
						}
						return live[i] - live[j]
					},
					func(i int) (string, int) { return col.dict[live[i]], counts[live[i]] })
			}}
		}
		return &aggCellFn{compute: func(rows []int32) any {
			type entry struct {
				row   int // first row carrying the value
				count int
			}
			index := map[string]int{}
			var entries []entry
			var buf []byte
			eachPassing(where, rows, func(sel []int32) {
				for _, r := range sel {
					row := int(r)
					if col.nulls.get(row) {
						continue
					}
					buf = col.appendKey(buf[:0], row)
					ei, ok := index[string(buf)]
					if !ok {
						ei = len(entries)
						index[string(buf)] = ei
						entries = append(entries, entry{row: row})
					}
					entries[ei].count++
				}
			})
			if len(entries) == 0 {
				return nil
			}
			return renderTopK(len(entries), k,
				func(i, j int) int {
					if entries[i].count != entries[j].count {
						if entries[i].count > entries[j].count {
							return -1
						}
						return 1
					}
					if c := col.compareRows(entries[i].row, entries[j].row); c != 0 {
						return c
					}
					return entries[i].row - entries[j].row
				},
				func(i int) (string, int) {
					return formatScalar(kind, col.typed(entries[i].row)), entries[i].count
				})
		}}
	}
	return &aggCellFn{compute: func([]int32) any { return nil }}
}

// renderTopK sorts n ranking entries by cmp, keeps k and renders them as
// "value:count, ..." — the shared tail of both executors' topk cells.
func renderTopK(n, k int, cmp func(i, j int) int, get func(i int) (string, int)) string {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cmp(order[a], order[b]) < 0 })
	if k < len(order) {
		order = order[:k]
	}
	var sb strings.Builder
	for i, e := range order {
		if i > 0 {
			sb.WriteString(", ")
		}
		v, c := get(e)
		sb.WriteString(v)
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// sortAggRows orders the typed output rows by the request's sort keys: the
// scan comparator's null-last semantics per key, ties keeping the incoming
// (first-occurrence) group order via the stable sort.
func sortAggRows[T any](rows [][]any, pa *preparedAgg[T]) {
	if len(pa.sortKeys) == 0 {
		return
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for k, ci := range pa.sortCols {
			av, bv := rows[a][ci], rows[b][ci]
			c := compareNullable(pa.sortKinds[k], av, av == nil, bv, bv == nil, pa.sortKeys[k].Desc)
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// emitAggRows converts typed cells to their JSON-facing representation in
// place (time.Time to RFC 3339, everything else passing through).
func emitAggRows(rows [][]any) {
	for _, row := range rows {
		for i, v := range row {
			if v != nil {
				row[i] = emitValue(v)
			}
		}
	}
}
