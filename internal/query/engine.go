package query

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Engine executes queries over an immutable item slice using a registry's
// fields. Scans never mutate the visible engine state, so one engine serves
// any number of concurrent callers; the typed column caches and secondary
// indexes build lazily under per-field sync.Once, which keeps concurrent
// first touches race-free.
type Engine[T any] struct {
	reg   *Registry[T]
	items []T

	// ordinals maps field name -> slot in the per-field cache slices below
	// (registration order, fixed at construction).
	ordinals  map[string]int
	cols      []colSlot
	dicts     []dictSlot
	sortedIdx []sortedSlot

	// chunkPool / candPool recycle the per-chunk match buffers of parallel
	// scans (oracle []int chunks, planned []int32 chunks). They are
	// pointers because sync keeps every used pool reachable until the
	// second GC after its last use: a pool embedded here would keep a
	// retired epoch's whole engine, columns included, alive that long.
	chunkPool *sync.Pool
	candPool  *sync.Pool

	// lastSel is the previously observed match rate (matches per 1<<16
	// scanned rows, stored +1 so zero means "no history"), the capacity
	// heuristic for preallocating match buffers.
	lastSel atomic.Uint32

	// pager, when non-nil, marks a paged engine (NewEnginePaged): columns
	// page in from a snapshot on first touch instead of building from items,
	// scans pin the columns they use, and the planner skips secondary
	// indexes. Results stay byte-identical to a materialized engine's.
	pager *enginePager[T]
}

// NewEngine binds a registry to a dataset slice. The engine keeps the slice;
// callers must not mutate it (or the registry's field set) afterwards.
func NewEngine[T any](reg *Registry[T], items []T) *Engine[T] {
	e := &Engine[T]{
		reg:       reg,
		items:     items,
		ordinals:  make(map[string]int, len(reg.order)),
		cols:      make([]colSlot, len(reg.order)),
		dicts:     make([]dictSlot, len(reg.order)),
		sortedIdx: make([]sortedSlot, len(reg.order)),
		chunkPool: new(sync.Pool),
		candPool:  new(sync.Pool),
	}
	for i, name := range reg.order {
		e.ordinals[name] = i
	}
	return e
}

// Fields implements Source.
func (e *Engine[T]) Fields() []FieldInfo { return e.reg.Fields() }

// Len returns the number of scannable items.
func (e *Engine[T]) Len() int { return len(e.items) }

// parallelThreshold is the row count above which filter matching fans out
// across CPUs. Below it the goroutine overhead outweighs the work.
const parallelThreshold = 4096

// prepared is one validated, compiled query: output fields resolved,
// filters compiled, sort keys bound. Both execution paths run from the same
// prepared form, so they accept and reject exactly the same queries with
// identical errors.
type prepared[T any] struct {
	outFields  []Field[T]
	outOrds    []int
	infos      []FieldInfo
	filters    []compiledFilter[T]
	sortKeys   []SortKey
	sortFields []Field[T]
	sortOrds   []int
	limit      int
}

func (e *Engine[T]) prepare(q Query) (*prepared[T], error) {
	if q.Limit < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLimit, q.Limit)
	}
	pq := &prepared[T]{limit: q.Limit}

	// Resolve the requested columns (empty = all, registration order).
	names := q.Fields
	if len(names) == 0 {
		names = e.reg.order
	}
	pq.outFields = make([]Field[T], 0, len(names))
	pq.outOrds = make([]int, 0, len(names))
	pq.infos = make([]FieldInfo, 0, len(names))
	for _, name := range names {
		f, ok := e.reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownField, name)
		}
		pq.outFields = append(pq.outFields, f)
		pq.outOrds = append(pq.outOrds, e.ordinals[name])
		pq.infos = append(pq.infos, f.info())
	}

	// Compile filters and sort keys up front so per-row evaluation is a
	// plain function call and malformed queries fail before any scanning.
	pq.filters = make([]compiledFilter[T], 0, len(q.Filters))
	for _, raw := range q.Filters {
		cf, err := compileFilter(e.reg, raw)
		if err != nil {
			return nil, err
		}
		pq.filters = append(pq.filters, cf)
	}
	pq.sortKeys = q.Sort
	pq.sortFields = make([]Field[T], 0, len(q.Sort))
	pq.sortOrds = make([]int, 0, len(q.Sort))
	for _, key := range q.Sort {
		f, ok := e.reg.Lookup(key.Field)
		if !ok {
			return nil, fmt.Errorf("%w: %q (in sort)", ErrUnknownField, key.Field)
		}
		pq.sortFields = append(pq.sortFields, f)
		pq.sortOrds = append(pq.sortOrds, e.ordinals[key.Field])
	}
	return pq, nil
}

// Scan implements Source on the planned path: secondary indexes answer the
// filters they can, a typed column scan covers the rest, and a bounded
// top-K selection replaces the full sort when a limit applies. Results are
// byte-identical to ScanOracle (Fields, Rows, TotalMatched — order
// included); Meta gains an Explain block and the rows-evaluated Scanned
// semantics documented on Meta.
func (e *Engine[T]) Scan(q Query) (*Result, error) {
	return e.ScanContext(context.Background(), q)
}

// ScanContext implements ContextSource: Scan with cooperative cancellation.
// The match, group and sort stages check the context at chunk boundaries (a
// few thousand rows apart), so a cancelled scan returns ctx.Err() promptly
// and every fanned-out worker has exited by the time it does. A context that
// never cancels changes nothing: the result is bit-identical to Scan's.
func (e *Engine[T]) ScanContext(ctx context.Context, q Query) (*Result, error) {
	start := time.Now()
	pq, err := e.prepare(q)
	if err != nil {
		return nil, err
	}
	if len(e.items) > math.MaxInt32 {
		// Row ids are int32 in the column path; datasets beyond 2^31 rows
		// (never reached in practice) keep the reference semantics.
		return e.scanOracle(pq, start), nil
	}
	if e.pager != nil {
		// Page in and pin every column the scan touches before any planning
		// work: a request that cannot get its columns degrades cleanly here
		// (ErrPageBudget / ErrPageUnavailable) instead of failing mid-scan.
		release, err := e.pinOrds(ctx, e.scanOrds(pq))
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return e.scanPlanned(ctx, pq, start)
}

// ScanOracle implements OracleSource: the pre-planner reference path kept
// verbatim — boxed per-row extraction, every filter on every row, full
// stable sort — for the equivalence suite and benchmarks to compare
// against.
func (e *Engine[T]) ScanOracle(q Query) (*Result, error) {
	start := time.Now()
	pq, err := e.prepare(q)
	if err != nil {
		return nil, err
	}
	return e.scanOracle(pq, start), nil
}

func (e *Engine[T]) scanOracle(pq *prepared[T], start time.Time) *Result {
	matched := e.match(pq.filters)
	total := len(matched)
	if len(pq.sortFields) > 0 {
		e.sortMatches(matched, pq.sortKeys, pq.sortFields)
	}
	if pq.limit > 0 && len(matched) > pq.limit {
		matched = matched[:pq.limit]
	}

	rows := make([][]any, 0, len(matched))
	for _, idx := range matched {
		row := make([]any, len(pq.outFields))
		for i, f := range pq.outFields {
			if v, null := extract(f, e.items[idx]); !null {
				row[i] = emitValue(v)
			}
		}
		rows = append(rows, row)
	}

	return &Result{
		Fields: pq.infos,
		Rows:   rows,
		Meta: Meta{
			Scanned:         len(e.items),
			TotalMatched:    total,
			Returned:        len(rows),
			QueryTimeMicros: time.Since(start).Microseconds(),
		},
	}
}

// capHint sizes a match buffer for a scan over n rows from the previously
// observed selectivity, so matchRange stops growing its output from nil on
// every chunk. New engines start small; a hint never exceeds n.
func (e *Engine[T]) capHint(n int) int {
	sel := e.lastSel.Load()
	if sel == 0 {
		if n < 64 {
			return n
		}
		return 64
	}
	c := int(uint64(n)*uint64(sel-1)>>16) + 8
	if c > n {
		c = n
	}
	return c
}

// observeSelectivity records a finished scan's match rate for the next
// capHint.
func (e *Engine[T]) observeSelectivity(matched, scanned int) {
	if scanned == 0 {
		return
	}
	e.lastSel.Store(uint32(uint64(matched)<<16/uint64(scanned)) + 1)
}

// match returns the indices of items passing every filter, in dataset order.
// Large datasets are matched in parallel chunks; concatenating the per-chunk
// index slices in chunk order preserves dataset order, which is what makes
// the later stable sort (and unsorted queries) deterministic.
func (e *Engine[T]) match(filters []compiledFilter[T]) []int {
	n := len(e.items)
	if n < parallelThreshold {
		out := e.matchRange(filters, 0, n, make([]int, 0, e.capHint(n)))
		e.observeSelectivity(len(out), n)
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	parts := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Chunk buffers come from the pool and go back after the
			// chunk-order concatenation below, so steady-state scans stop
			// re-growing []int from nil on every chunk.
			buf, _ := e.chunkPool.Get().([]int)
			if cap(buf) == 0 {
				buf = make([]int, 0, e.capHint(hi-lo))
			}
			parts[w] = e.matchRange(filters, lo, hi, buf[:0])
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int, 0, total)
	for _, p := range parts {
		out = append(out, p...)
		e.chunkPool.Put(p[:0]) //nolint:staticcheck // buffer reuse is the point
	}
	e.observeSelectivity(len(out), n)
	return out
}

func (e *Engine[T]) matchRange(filters []compiledFilter[T], lo, hi int, out []int) []int {
	for i := lo; i < hi; i++ {
		item := e.items[i]
		ok := true
		for f := range filters {
			if !filters[f].match(item) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// sortMatches orders matched indices by the sort keys. Key values are
// extracted once per row into columns rather than inside the comparator,
// keeping the comparator allocation-free.
func (e *Engine[T]) sortMatches(matched []int, keys []SortKey, fields []Field[T]) {
	type column struct {
		vals  []any
		nulls []bool
	}
	cols := make([]column, len(fields))
	for k, f := range fields {
		col := column{vals: make([]any, len(matched)), nulls: make([]bool, len(matched))}
		for i, idx := range matched {
			v, null := extract(f, e.items[idx])
			col.vals[i], col.nulls[i] = v, null
		}
		cols[k] = col
	}
	// Sort a permutation of positions so column lookups stay aligned; ties
	// keep dataset order because the sort is stable over the identity
	// permutation.
	perm := make([]int, len(matched))
	for i := range perm {
		perm[i] = i
	}
	cmp := func(a, b int) int {
		for k := range keys {
			c := compareNullable(fields[k].Kind, cols[k].vals[a], cols[k].nulls[a],
				cols[k].vals[b], cols[k].nulls[b], keys[k].Desc)
			if c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(perm, func(i, j int) bool { return cmp(perm[i], perm[j]) < 0 })
	reordered := make([]int, len(matched))
	for i, p := range perm {
		reordered[i] = matched[p]
	}
	copy(matched, reordered)
}

// compareNullable orders two possibly-null values under one sort key: nulls
// after every non-null value in both directions, non-nulls by kind order,
// inverted when descending.
func compareNullable(kind Kind, av any, aNull bool, bv any, bNull bool, desc bool) int {
	switch {
	case aNull && bNull:
		return 0
	case aNull:
		return 1
	case bNull:
		return -1
	}
	c := compareValues(kind, av, bv)
	if desc {
		return -c
	}
	return c
}
