package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Paged engines: columns live on disk and page in on first touch. A paged
// engine holds its items (the row slice recovered from the WAL-backed record
// section, which is what correctness falls back on) but leaves the typed
// column planes in the snapshot file, loading each through a ColumnFetcher the
// first time a scan needs it. Residency is governed by a byte budget
// (PagePool): a column is pinned while any scan uses it and evictable after,
// so the served corpus can exceed the budget as long as no single query's
// column set does. The victim is the unpinned column predicted to be needed
// last, ranked by its gap between acquires (the core of LIRS, Jiang & Zhang,
// SIGMETRICS 2002): a workload cycling over more columns than fit keeps a
// stable part of its cycle resident, where LRU would evict each column just
// before it is needed again, and a column acquired only once cannot flush
// columns in re-use.
//
// The pool owns every fetched column's memory, as a DBMS buffer pool owns
// its frames (Effelsberg & Härder, TODS 1984): a fetch decodes into value
// planes and a read buffer lent from the pool's typed free lists
// (PageMemory), and an evicted or retired column's memory goes back to them
// for the next fetch instead of to the GC. That is safe because nothing
// reads a paged column without a pin — requests pin through pinOrds, and
// ExportColumns and NewEngineAppend never read a paged column — and because
// no plain string leaves the engine aliasing a lent buffer: value and typed
// copy the strings of such a column as they emit them.
//
// Every fetch is fallible, and the failure ladder is explicit:
//
//  1. Transient read errors retry with bounded backoff (ErrPageUnavailable
//     after the attempts are spent — the caller degrades the request, it does
//     not get a wrong answer).
//  2. A checksum or structural-validation failure quarantines the column
//     (the on-disk bytes are never trusted again this process) and falls back
//     to rebuilding it from the resident items — the WAL-sourced truth.
//  3. Budget exhaustion — the needed bytes cannot be freed because everything
//     resident is pinned — fails fast with ErrPageBudget; serving maps it to
//     a clean 503 + Retry-After.
//
// Paged engines answer every query byte-identically (Fields, Rows,
// TotalMatched) to a fully-materialized engine over the same rows: the
// planner skips secondary indexes (indexedOrd reports "no index" so every
// filter runs as a residual scan — layout never changes results, only
// Explain), and the column values themselves are either the snapshot's
// validated planes or a rebuild through the same buildColumn the materialized
// engine uses.

// Fetch-failure sentinels. Fetchers wrap ErrPageCorrupt around checksum
// mismatches; the pool wraps ErrPageUnavailable around exhausted retries and
// ErrPageBudget around reservation failures. Serving layers classify with
// errors.Is.
var (
	// ErrPageBudget means the page budget cannot admit the columns a request
	// needs: everything resident is pinned by other requests. Transient by
	// nature — retry after in-flight scans release their pins.
	ErrPageBudget = errors.New("query: page budget exhausted")
	// ErrPageUnavailable means a column fetch kept failing after bounded
	// retries. The on-disk bytes may be fine (transient I/O), so the column is
	// not quarantined; the request degrades.
	ErrPageUnavailable = errors.New("query: column page unavailable")
	// ErrPageCorrupt marks a fetch whose bytes failed checksum or structural
	// validation. The pool quarantines the column and rebuilds it from items.
	ErrPageCorrupt = errors.New("query: column page corrupt")
)

// ColumnFetcher is the segment-fetch interface a paged engine loads columns
// through. Implementations must be safe for concurrent use; the durable
// layer's snapshot reader is the production one.
type ColumnFetcher interface {
	// Columns lists the fetchable column names (each registered on the
	// engine), fixed for the fetcher's lifetime.
	Columns() []string
	// ColumnBytes returns the decoded in-memory size estimate of one column,
	// the budget charge while it is resident. Must be positive for every name
	// in Columns.
	ColumnBytes(name string) int64
	// FetchColumn reads, checksum-verifies and decodes one column. A checksum
	// mismatch must return an error wrapping ErrPageCorrupt; any other error
	// is treated as transient and retried. A cancelled ctx aborts the fetch.
	//
	// A pool load lends the memory to decode into through ctx
	// (LentPageMemory). A fetcher that takes its value planes and read
	// buffer from there keeps no reference to any of it, because the pool
	// hands the memory to another fetch once the column is evicted, or at
	// once when the fetch fails; only a plain string plane may alias the
	// read buffer, which the pool takes back after any other fetch. Planes
	// the fetcher returns from elsewhere are never recycled.
	FetchColumn(ctx context.Context, name string) (*ColumnData, error)
}

// PageMemory is the memory one column fetch decodes into, lent by the
// PagePool that runs the fetch: value planes and read buffers from the
// pool's typed free lists. The pool keeps the loan on the column's slot
// while the column is resident and takes it back when the column is evicted
// or retired, so a paged workload in steady state decodes into the memory of
// the columns it evicted instead of allocating. A lent slice's contents are
// unspecified: the fetcher writes every element. The methods of a nil
// *PageMemory allocate zeroed slices, so a fetch made outside a pool load
// works unchanged.
type PageMemory struct {
	free   *pageFreeLists
	planes []lentSlice
	bufs   []lentSlice
}

// pageFreeLists holds recycled page-in memory, one sync.Pool of *[]V boxes
// per element type. A sync.Pool drops what stays unused across two GCs, so
// the lists hold no more than recent evictions freed.
type pageFreeLists struct {
	int64s, int32s, float64s, uint32s, bools, strs, bytes sync.Pool
}

// lentSlice is one lent *[]V box and the free list it goes back to.
type lentSlice struct {
	box  any
	free *sync.Pool
}

type pageMemoryKey struct{}

// LentPageMemory returns the memory a PagePool lends the fetch running under
// ctx, nil outside a pool load. The loan travels in the context so that
// FetchColumn keeps its signature: a fetcher that never asks for it, such as
// a test fake serving columns it already holds, still works, and the pool
// recycles only what it lent.
func LentPageMemory(ctx context.Context) *PageMemory {
	m, _ := ctx.Value(pageMemoryKey{}).(*PageMemory)
	return m
}

// lend takes an n-element slice from free (a fresh one when the list is
// empty or its slice is too short) and records it on list.
func lend[V any](free *sync.Pool, list *[]lentSlice, n int) []V {
	p, _ := free.Get().(*[]V)
	if p == nil || cap(*p) < n {
		s := make([]V, n)
		p = &s
	}
	*p = (*p)[:n]
	*list = append(*list, lentSlice{box: p, free: free})
	return *p
}

// Int64s lends an n-row int64 plane (ints, time seconds).
func (m *PageMemory) Int64s(n int) []int64 {
	if m == nil {
		return make([]int64, n)
	}
	return lend[int64](&m.free.int64s, &m.planes, n)
}

// Int32s lends an n-row int32 plane (time nanoseconds and offsets).
func (m *PageMemory) Int32s(n int) []int32 {
	if m == nil {
		return make([]int32, n)
	}
	return lend[int32](&m.free.int32s, &m.planes, n)
}

// Float64s lends an n-row float64 plane.
func (m *PageMemory) Float64s(n int) []float64 {
	if m == nil {
		return make([]float64, n)
	}
	return lend[float64](&m.free.float64s, &m.planes, n)
}

// Uint32s lends an n-row uint32 plane (dictionary codes).
func (m *PageMemory) Uint32s(n int) []uint32 {
	if m == nil {
		return make([]uint32, n)
	}
	return lend[uint32](&m.free.uint32s, &m.planes, n)
}

// Bools lends an n-row bool plane.
func (m *PageMemory) Bools(n int) []bool {
	if m == nil {
		return make([]bool, n)
	}
	return lend[bool](&m.free.bools, &m.planes, n)
}

// Strings lends an n-row string plane.
func (m *PageMemory) Strings(n int) []string {
	if m == nil {
		return make([]string, n)
	}
	return lend[string](&m.free.strs, &m.planes, n)
}

// Buffer lends an n-byte read buffer. It stays lent with the column only
// when the column's strings alias it (a plain string column); after any
// other fetch it goes back as soon as the fetch returns.
func (m *PageMemory) Buffer(n int) []byte {
	if m == nil {
		return make([]byte, n)
	}
	return lend[byte](&m.free.bytes, &m.bufs, n)
}

func giveBack(list []lentSlice) {
	for _, l := range list {
		l.free.Put(l.box)
	}
}

// settle runs once a fetch has returned c: a plain string column's values
// alias the read buffers, so they stay lent with it and its emitted strings
// are copied (column.lentStrs); any other column is done with them, and
// they go back now.
func (m *PageMemory) settle(c *column) {
	if c.kind == KindString && c.dict == nil && len(m.bufs) > 0 {
		c.lentStrs = true
		return
	}
	giveBack(m.bufs)
	m.bufs = nil
}

// recycle returns everything still lent to the free lists. Nil-safe: a
// rebuilt (quarantined) column borrowed nothing.
func (m *PageMemory) recycle() {
	if m == nil {
		return
	}
	giveBack(m.planes)
	giveBack(m.bufs)
	m.planes, m.bufs = nil, nil
}

// PageStats is a point-in-time snapshot of a pool's counters, feeding the
// paged_* metrics. Hits counts acquires that pinned an already resident
// column, waiters on another acquirer's load included.
type PageStats struct {
	Budget        int64
	ResidentBytes int64
	Fetches       int64
	Hits          int64
	Evictions     int64
	Retries       int64
	Quarantines   int64
}

// PagePool is the residency authority shared by the paged engines of one
// process (epochs hand their slots over via Retire, so one budget governs
// the old and new engine during a swap). All slot state below is guarded by
// mu; the column pointers themselves are the engines' atomic slots, so scans
// read them without the pool lock.
type PagePool struct {
	budget     int64
	retries    int
	retryDelay time.Duration

	mu       sync.Mutex
	resident int64
	// tick counts acquires; slots stamp their last two acquires with it.
	tick uint64
	// Idle list of resident, unpinned slots in release order: the eviction
	// candidates.
	idleHead, idleTail *pagedSlot

	// free holds the memory of evicted columns for the next fetches.
	free pageFreeLists

	fetches     atomic.Int64
	hits        atomic.Int64
	evictions   atomic.Int64
	retryCount  atomic.Int64
	quarantines atomic.Int64
}

// NewPagePool creates a pool with a byte budget (<= 0 means unbounded — page
// lazily but never evict), a transient-fetch retry count and the base backoff
// delay between attempts (doubling per retry, capped at 8x).
func NewPagePool(budget int64, retries int, retryDelay time.Duration) *PagePool {
	if retries < 0 {
		retries = 0
	}
	if retryDelay <= 0 {
		retryDelay = time.Millisecond
	}
	return &PagePool{budget: budget, retries: retries, retryDelay: retryDelay}
}

// Stats returns the pool's current counters.
func (p *PagePool) Stats() PageStats {
	p.mu.Lock()
	resident := p.resident
	p.mu.Unlock()
	return PageStats{
		Budget:        p.budget,
		ResidentBytes: resident,
		Fetches:       p.fetches.Load(),
		Hits:          p.hits.Load(),
		Evictions:     p.evictions.Load(),
		Retries:       p.retryCount.Load(),
		Quarantines:   p.quarantines.Load(),
	}
}

// pagedSlot is one column's residency state. colp aliases the engine's atomic
// column slot: non-nil exactly while the slot is resident (charged against
// the budget), and mem is then the memory its fetch borrowed (nil for a
// rebuilt column). Everything else is guarded by the pool's mu, except
// quarantined, which only the slot's unique loader (serialized by loading)
// touches.
type pagedSlot struct {
	name    string
	bytes   int64
	colp    *atomic.Pointer[column]
	mem     *PageMemory
	fetch   func(ctx context.Context) (*column, error)
	rebuild func() *column

	pins        int
	loading     chan struct{} // non-nil while one loader fetches; closed when done
	quarantined bool
	dead        bool // epoch retired: free on last release instead of going idle
	// lastUse and prevUse are the ticks of the slot's last two acquires (0
	// for none), loadedAt the tick its current residency was reserved at.
	// The slot outlives eviction, so a refetched column keeps its history.
	lastUse, prevUse, loadedAt uint64
	idle                       bool
	prev, next                 *pagedSlot
}

func (p *PagePool) idleRemove(s *pagedSlot) {
	if !s.idle {
		return
	}
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		p.idleHead = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		p.idleTail = s.prev
	}
	s.prev, s.next, s.idle = nil, nil, false
}

func (p *PagePool) idlePush(s *pagedSlot) {
	s.prev, s.next, s.idle = p.idleTail, nil, true
	if p.idleTail != nil {
		p.idleTail.next = s
	} else {
		p.idleHead = s
	}
	p.idleTail = s
}

// reuseDistanceLocked predicts how many acquires away a slot's next acquire
// is: the larger of its last gap between acquires and the acquires since
// its last one. A slot acquired only once has no gap yet and ranks
// infinite.
func (p *PagePool) reuseDistanceLocked(s *pagedSlot) uint64 {
	if s.prevUse == 0 {
		return math.MaxUint64
	}
	return max(s.lastUse-s.prevUse, p.tick-s.lastUse)
}

// victimLocked returns the idle slot predicted to be needed last, nil when
// none is idle. Ties go to the most recently loaded slot, so a cycle wider
// than the budget evicts its newest arrivals and keeps a stable part of
// itself resident; a full tie keeps idle-list order, so the choice depends
// only on the acquire and release order.
func (p *PagePool) victimLocked() *pagedSlot {
	var victim *pagedSlot
	var far uint64
	for s := p.idleHead; s != nil; s = s.next {
		d := p.reuseDistanceLocked(s)
		if victim == nil || d > far || (d == far && s.loadedAt > victim.loadedAt) {
			victim, far = s, d
		}
	}
	return victim
}

// evictLocked drops one resident, unpinned slot.
func (p *PagePool) evictLocked(s *pagedSlot) {
	p.idleRemove(s)
	p.dropLocked(s)
}

// dropLocked ends the residency of a slot no request has pinned: the column
// pointer clears and the memory its fetch borrowed goes back to the free
// lists at once. No wait for readers is needed, because nothing reads a
// paged column without a pin and no emitted value aliases its memory.
func (p *PagePool) dropLocked(s *pagedSlot) {
	s.colp.Store(nil)
	s.mem.recycle()
	s.mem = nil
	p.resident -= s.bytes
	p.evictions.Add(1)
}

// reserveLocked evicts victims until need bytes fit under the budget. False
// means everything resident is pinned and the request must degrade.
func (p *PagePool) reserveLocked(need int64) bool {
	if p.budget > 0 {
		for p.resident+need > p.budget {
			v := p.victimLocked()
			if v == nil {
				return false
			}
			p.evictLocked(v)
		}
	}
	p.resident += need
	return true
}

// acquire pins one column, loading it if absent. Exactly one goroutine
// performs a given slot's load; concurrent acquirers wait on the loading
// channel (or their context) and re-examine the slot when it closes.
func (p *PagePool) acquire(ctx context.Context, s *pagedSlot) error {
	p.mu.Lock()
	p.tick++
	s.prevUse, s.lastUse = s.lastUse, p.tick
	for {
		if s.colp.Load() != nil {
			s.pins++
			p.idleRemove(s)
			p.mu.Unlock()
			p.hits.Add(1)
			return nil
		}
		if s.loading == nil {
			break
		}
		ch := s.loading
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		p.mu.Lock()
	}
	// Become the loader: reserve the budget before fetching so a doomed
	// request fails before any I/O, then load outside the lock.
	if !p.reserveLocked(s.bytes) {
		p.mu.Unlock()
		return fmt.Errorf("%w: %d bytes for column %q (budget %d, all resident pinned)",
			ErrPageBudget, s.bytes, s.name, p.budget)
	}
	s.loadedAt = p.tick
	ch := make(chan struct{})
	s.loading = ch
	p.mu.Unlock()

	col, mem, err := p.load(ctx, s)

	p.mu.Lock()
	s.loading = nil
	close(ch)
	if err != nil {
		p.resident -= s.bytes
		p.mu.Unlock()
		return err
	}
	s.colp.Store(col)
	s.mem = mem
	s.pins++
	p.mu.Unlock()
	return nil
}

// load runs the fetch-failure ladder for one slot (sole loader, no lock
// held): bounded retries with doubling backoff for transient errors, then
// quarantine + rebuild-from-items for corruption, ErrPageUnavailable when the
// retries are spent. Each attempt gets its own PageMemory through ctx; a
// failed attempt's goes straight back, a successful one's is returned for the
// slot to keep (nil for a rebuild).
func (p *PagePool) load(ctx context.Context, s *pagedSlot) (*column, *PageMemory, error) {
	if !s.quarantined {
		p.fetches.Add(1)
		var lastErr error
		delay := p.retryDelay
		for attempt := 0; attempt <= p.retries; attempt++ {
			if attempt > 0 {
				p.retryCount.Add(1)
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return nil, nil, ctx.Err()
				}
				if delay < 8*p.retryDelay {
					delay *= 2
				}
			}
			mem := &PageMemory{free: &p.free}
			col, err := s.fetch(context.WithValue(ctx, pageMemoryKey{}, mem))
			if err == nil {
				mem.settle(col)
				return col, mem, nil
			}
			mem.recycle()
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			if errors.Is(err, ErrPageCorrupt) {
				p.quarantines.Add(1)
				s.quarantined = true
				lastErr = err
				break
			}
			lastErr = err
		}
		if !s.quarantined {
			return nil, nil, fmt.Errorf("%w: column %q: %v", ErrPageUnavailable, s.name, lastErr)
		}
	}
	// Quarantined: the snapshot bytes are not trusted; rebuild the column from
	// the resident items, which the WAL/record section vouches for.
	return s.rebuild(), nil, nil
}

// release unpins one column; the last pin moves it to the idle list (or
// frees it outright when its epoch was retired).
func (p *PagePool) release(s *pagedSlot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s.pins--
	if s.pins > 0 {
		return
	}
	if s.dead {
		if s.colp.Load() != nil {
			p.dropLocked(s)
		}
		return
	}
	p.idlePush(s)
}

// retire marks an engine's slots dead and evicts the unpinned ones — the
// epoch-swap hook: the old engine's residency is dropped (pinned columns
// linger only until their in-flight scans release).
func (p *PagePool) retire(slots []*pagedSlot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range slots {
		if s == nil || s.dead {
			continue
		}
		s.dead = true
		if s.pins == 0 && s.colp.Load() != nil {
			p.evictLocked(s)
		}
	}
}

// enginePager is one paged engine's view of the pool: a slot per paged
// ordinal (nil for fields that stay lazy).
type enginePager[T any] struct {
	fetcher ColumnFetcher
	pool    *PagePool
	slots   []*pagedSlot
}

// NewEnginePaged builds a compressed engine over items whose columns named by
// fetcher.Columns() page in on demand through pool. Fields the fetcher does
// not cover stay lazy, exactly as on a cold engine. The engine answers every
// query byte-identically (Fields/Rows/TotalMatched) to NewEngine(reg, items).
func NewEnginePaged[T any](reg *Registry[T], items []T, fetcher ColumnFetcher, pool *PagePool) (*Engine[T], error) {
	if fetcher == nil || pool == nil {
		return nil, fmt.Errorf("query: paged engine needs a fetcher and a pool")
	}
	e := NewEngine(reg, items)
	p := &enginePager[T]{fetcher: fetcher, pool: pool, slots: make([]*pagedSlot, len(reg.order))}
	for _, name := range fetcher.Columns() {
		ord, ok := e.ordinals[name]
		if !ok {
			return nil, fmt.Errorf("query: paged column %q is not registered", name)
		}
		if p.slots[ord] != nil {
			return nil, fmt.Errorf("query: duplicate paged column %q", name)
		}
		bytes := fetcher.ColumnBytes(name)
		if bytes <= 0 {
			return nil, fmt.Errorf("query: paged column %q has size %d, want > 0", name, bytes)
		}
		f := reg.byName[name]
		name := name
		s := &pagedSlot{name: name, bytes: bytes, colp: &e.cols[ord].col}
		s.fetch = func(ctx context.Context) (*column, error) {
			cd, err := fetcher.FetchColumn(ctx, name)
			if err != nil {
				return nil, err
			}
			c, err := importColumn(f.Dictionary, cd, len(items))
			if err != nil {
				// The frame checksum passed but the structure is inconsistent:
				// same trust verdict as a checksum failure.
				return nil, fmt.Errorf("%w: column %q: %v", ErrPageCorrupt, name, err)
			}
			return c, nil
		}
		s.rebuild = func() *column { return buildColumn(f, items) }
		p.slots[ord] = s
	}
	e.pager = p
	return e, nil
}

// PageStats exposes the pool counters of a paged engine (zero stats on a
// fully-materialized engine).
func (e *Engine[T]) PageStats() PageStats {
	if e.pager == nil {
		return PageStats{}
	}
	return e.pager.pool.Stats()
}

// RetirePages drops the engine from its page pool: resident unpinned columns
// evict now, pinned ones when their scans finish. Epoch swaps call this on
// the outgoing engine so the budget belongs to the incoming one.
func (e *Engine[T]) RetirePages() {
	if e.pager != nil {
		e.pager.pool.retire(e.pager.slots)
	}
}

// filterOrds collects the registration ordinals of a compiled filter set.
func (e *Engine[T]) filterOrds(filters []compiledFilter[T], out []int) []int {
	for i := range filters {
		out = append(out, e.ordinals[filters[i].field.Name])
	}
	return out
}

// pinOrds pins every paged column in ords (deduplicated) for the duration of
// a request, paging absent ones in. On any failure it releases what it pinned
// and returns the error — a request never holds partial pins. The returned
// release must be called exactly once.
func (e *Engine[T]) pinOrds(ctx context.Context, ords []int) (release func(), err error) {
	p := e.pager
	if p == nil {
		return func() {}, nil
	}
	seen := make(map[int]bool, len(ords))
	pinned := make([]*pagedSlot, 0, len(ords))
	for _, ord := range ords {
		if seen[ord] {
			continue
		}
		seen[ord] = true
		s := p.slots[ord]
		if s == nil {
			continue // not paged: lazy build through columnFor
		}
		if err := p.pool.acquire(ctx, s); err != nil {
			for _, ps := range pinned {
				p.pool.release(ps)
			}
			return nil, err
		}
		pinned = append(pinned, s)
	}
	return func() {
		for _, ps := range pinned {
			p.pool.release(ps)
		}
	}, nil
}

// scanOrds is the full ordinal set a planned scan touches: filter columns
// (predicates, zone pruners), sort columns and output columns.
func (e *Engine[T]) scanOrds(pq *prepared[T]) []int {
	ords := make([]int, 0, len(pq.filters)+len(pq.sortOrds)+len(pq.outOrds))
	ords = e.filterOrds(pq.filters, ords)
	ords = append(ords, pq.sortOrds...)
	ords = append(ords, pq.outOrds...)
	return ords
}

// aggOrds is the full ordinal set a planned aggregation touches: request
// filters, group-by columns, each spec's value column and its where-filter
// columns.
func (e *Engine[T]) aggOrds(pa *preparedAgg[T]) []int {
	ords := make([]int, 0, len(pa.filters)+len(pa.groupOrds)+2*len(pa.specs))
	ords = e.filterOrds(pa.filters, ords)
	ords = append(ords, pa.groupOrds...)
	for i := range pa.specs {
		if pa.specs[i].ord >= 0 {
			ords = append(ords, pa.specs[i].ord)
		}
		ords = e.filterOrds(pa.specs[i].where, ords)
	}
	return ords
}

// transientColumn serves a reader that holds no pin (ExportColumns): a
// one-off build from items, never installed or charged against the budget.
// Such a reader must not read the resident column even when there is one:
// an eviction could hand its memory to another fetch mid-read.
func (p *enginePager[T]) transientColumn(e *Engine[T], ord int) *column {
	f := e.reg.byName[e.reg.order[ord]]
	return buildColumn(f, e.items)
}
