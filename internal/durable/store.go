package durable

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/ingest"
	"marketscope/internal/query"
)

// walFileName is the write-ahead log inside the data directory.
const walFileName = "wal.log"

// Options configures a durable Store.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// Dir is the data directory (created if absent).
	Dir string
	// Fsync is the WAL sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the sync period under FsyncInterval; 0 means 100ms.
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot after that many applied batches;
	// 0 disables automatic snapshots (WriteSnapshot remains available).
	SnapshotEvery int
	// KeepSnapshots bounds retained snapshot generations; 0 means 2.
	KeepSnapshots int
	// Ingest configures the wrapped ingestor. Commit must be nil — the store
	// owns the commit hook; Publish is suppressed during recovery replay and
	// forwarded afterwards.
	Ingest ingest.Options
	// Metrics receives recovery and snapshot counters; nil allocates one.
	Metrics *Metrics

	// PageBudget enables lazy column paging for snapshot recovery: instead of
	// materializing every column eagerly, the recovered engine leaves them on
	// disk and pages them in on first touch, holding at most PageBudget
	// decoded bytes resident (pinned columns excepted — a single request's
	// working set always completes). 0 disables paging (fully materialized,
	// the default); negative means page lazily with no residency bound.
	PageBudget int64
}

// A page-in retries a transient fetch failure pageRetries times, waiting
// pageRetryDelay before the first retry and doubling it before each next.
const (
	pageRetries    = 2
	pageRetryDelay = 2 * time.Millisecond
)

// Store is a crash-safe ingest.Applier: every acknowledged delta is in the
// WAL first (per the fsync policy), snapshots bound replay work, and Open
// recovers an engine byte-identical to a cold build over the acknowledged
// prefix. See the package comment for the exact contract.
type Store struct {
	fsys    FS
	dir     string
	walPath string
	opts    Options
	m       *Metrics

	ing  *ingest.Ingestor
	w    *wal
	live atomic.Bool // false while recovery replays the log

	// pool is the column page pool when Options.PageBudget enabled paging,
	// nil otherwise. servedDS tracks the dataset epoch most recently published
	// so an epoch swap can retire the outgoing engine's pages. pagedGen is
	// the path of the generation the served paged engine reads, "" once that
	// engine is retired; pruning keeps that file.
	pool     *query.PagePool
	servedMu sync.Mutex
	servedDS *analysis.Dataset
	pagedGen string

	snapMu    sync.Mutex // serializes snapshot writes and the cadence counter
	sinceSnap int
	snapErr   error // last automatic snapshot failure, for Err()

	// unread holds the paths of the generations recover refused with
	// ErrSnapshotVersion; pruning does not count them as kept generations.
	unread map[string]bool

	closeOnce sync.Once
	stopSync  chan struct{}
	syncDone  chan struct{}
}

// Open recovers (or initializes) the data directory and returns a live
// store. The recovery ladder, newest snapshot first:
//
//  1. Load a snapshot, restore the ingestor from its records+blobs, install
//     its column store, replay the WAL tail (seq ≥ snapshot cursor).
//  2. Any failure quarantines that snapshot (renamed *.corrupt, counted) and
//     tries the previous generation.
//  3. With no usable snapshot, rebuild cold: a fresh ingestor replaying the
//     whole WAL.
//
// A torn WAL tail is truncated before any of that; a corrupt WAL header is
// unrecoverable (the acknowledged batches cannot be reproduced) and fails
// Open rather than serving partial state. Nothing is published during
// recovery — attach the recovered dataset to a server after Open returns.
func Open(opts Options) (*Store, error) {
	if opts.Ingest.Commit != nil {
		return nil, errors.New("durable: Options.Ingest.Commit is owned by the store")
	}
	if opts.Dir == "" {
		return nil, errors.New("durable: Options.Dir is required")
	}
	s := &Store{
		fsys:    opts.FS,
		dir:     opts.Dir,
		walPath: joinPath(opts.Dir, walFileName),
		opts:    opts,
		m:       opts.Metrics,
		unread:  map[string]bool{},
	}
	if s.fsys == nil {
		s.fsys = OSFS
	}
	if s.m == nil {
		s.m = &Metrics{}
	}
	if s.opts.KeepSnapshots <= 0 {
		s.opts.KeepSnapshots = 2
	}
	if s.opts.FsyncInterval <= 0 {
		s.opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.PageBudget != 0 {
		budget := opts.PageBudget
		if budget < 0 {
			budget = 0 // NewPagePool treats a non-positive budget as unbounded
		}
		s.pool = query.NewPagePool(budget, pageRetries, pageRetryDelay)
		s.m.attachPagePool(s.pool)
	}
	if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create data dir: %w", err)
	}
	s.removeTempSnapshots()

	scan, err := scanWAL(s.fsys, s.walPath, nil)
	if err != nil {
		return nil, err
	}
	ingOpts := s.opts.Ingest
	if scan.exists && !scan.badHeader {
		// The header's crawl time, not the caller's: a restored dataset must
		// be stamped exactly as the original batches were.
		ingOpts.CrawlTime = scan.crawlTime
	}
	ingOpts.Commit = s.commit
	userPublish := ingOpts.Publish
	ingOpts.Publish = func(ds *analysis.Dataset) {
		// Track the served epoch even while recovery replays (live still
		// false): a tail-replay swap must retire the paged snapshot engine
		// exactly like a live swap would.
		s.noteServed(ds)
		if s.live.Load() && userPublish != nil {
			userPublish(ds)
		}
	}
	if !scan.exists || scan.badHeader {
		if err := createWAL(s.fsys, s.dir, s.walPath, ingOpts.CrawlTime); err != nil {
			return nil, err
		}
	} else if repaired, err := repairWAL(s.fsys, s.walPath, scan); err != nil {
		return nil, err
	} else if repaired {
		s.m.WALTailTruncations.Add(1)
	}

	if err := s.recover(ingOpts, scan); err != nil {
		return nil, err
	}

	w, err := openWALAppender(s.fsys, s.walPath, s.opts.Fsync)
	if err != nil {
		return nil, err
	}
	s.w = w
	s.live.Store(true)
	if s.opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// errStopReplay ends a WAL replay early without reporting failure: a seq gap
// means the log was damaged and truncated in a previous incarnation while a
// snapshot carried the cursor past the tear. Everything before the gap is
// clean acknowledged state; everything after it belongs to a newer epoch the
// snapshot already covers (or is lost with the tear, under the documented
// weaker contract for in-place corruption).
var errStopReplay = errors.New("durable: replay stopped at seq gap")

// recover builds s.ing from the best available state. scan is Open's initial
// integrity pass over the WAL (already repaired): when it proves the log
// holds nothing at or past a snapshot's cursor, the tail replay is skipped
// entirely instead of re-reading the whole log to apply zero records.
func (s *Store) recover(ingOpts ingest.Options, scan walScanInfo) error {
	var replayed int64
	replay := func(ing *ingest.Ingestor, from uint64) error {
		_, err := scanWAL(s.fsys, s.walPath, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			listings, err := decodeListings(payload)
			if err != nil {
				return fmt.Errorf("%w: record seq %d: %v", ErrWALCorrupt, seq, err)
			}
			if _, err := ing.Apply(ingest.Delta{Seq: seq, Listings: listings}); err != nil {
				if errors.Is(err, ingest.ErrCursorGap) {
					return errStopReplay
				}
				return fmt.Errorf("durable: replay seq %d: %w", seq, err)
			}
			replayed++
			return nil
		})
		if errors.Is(err, errStopReplay) {
			return nil
		}
		return err
	}

	for _, name := range s.snapshotNames() {
		path := joinPath(s.dir, name)
		start := time.Now()
		ing, cursor, err := s.loadSnapshot(ingOpts, path)
		if err == nil {
			s.noteServed(ing.Dataset())
			replayed = 0
			tailEmpty := scan.records == 0 || scan.lastSeq < cursor
			if !tailEmpty {
				err = replay(ing, cursor)
			}
			if err != nil {
				if !errors.Is(err, ErrWALCorrupt) {
					return err
				}
			} else {
				s.ing = ing
				s.m.setSnapshotLoadSeconds(time.Since(start).Seconds())
				s.m.LastSnapshotGeneration.Store(cursor)
				s.m.WALRecordsReplayed.Store(replayed)
				return nil
			}
			// Replay off this snapshot failed; drop whatever epoch it
			// installed before falling back to an older generation.
			s.noteServed(nil)
		}
		if errors.Is(err, ErrSnapshotVersion) {
			// Version 1 or a newer binary's format — not corrupt, just not
			// read by this build. Leave the file exactly as found (a
			// quarantine rename would destroy a newer binary's data) and fall
			// back to an older generation or the WAL. Nothing of the file was
			// adopted, and no acked delta is lost while the WAL is never
			// truncated.
			s.unread[path] = true
			continue
		}
		if qerr := s.quarantine(name); qerr != nil {
			return fmt.Errorf("durable: snapshot %s failed (%v) and could not be quarantined: %w", name, err, qerr)
		}
	}

	ing := ingest.New(ingOpts)
	replayed = 0
	if err := replay(ing, 0); err != nil {
		return err
	}
	s.ing = ing
	s.m.WALRecordsReplayed.Store(replayed)
	return nil
}

// loadSnapshot restores an ingestor (and its dataset's column store) from one
// snapshot file, opened by openSnapshot in both modes. With paging enabled
// the columns stay on disk, and the installed engine pages value planes in
// through the store's pool. Otherwise every column is read and decoded while
// the ingestor is rebuilt from records+blobs — the two longest phases of
// recovery overlap instead of running back to back — and installed fully
// materialized. Returns the snapshot's cursor alongside the ingestor.
func (s *Store) loadSnapshot(ingOpts ingest.Options, path string) (*ingest.Ingestor, uint64, error) {
	lz, err := openSnapshot(s.fsys, path)
	if err != nil {
		return nil, 0, err
	}
	var cols []query.ColumnData
	colsErr := make(chan error, 1)
	if lz.fetcher != nil && s.pool == nil {
		go func() {
			var err error
			cols, err = lz.fetcher.loadColumns()
			colsErr <- err
		}()
	} else {
		colsErr <- nil
	}
	ing, err := ingest.Restore(ingOpts, lz.cursor, lz.records, analysis.APKBytesOf(lz.blobs))
	if cerr := <-colsErr; err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	ds := ing.Dataset()
	switch {
	case lz.fetcher == nil: // no columns to install
	case ds == nil:
		return nil, 0, fmt.Errorf("%w: columns without records", ErrSnapshotCorrupt)
	case s.pool != nil:
		if err := ds.InstallPagedQueryColumns(lz.fetcher, s.pool); err != nil {
			return nil, 0, err
		}
		s.servedMu.Lock()
		s.pagedGen = path
		s.servedMu.Unlock()
	default:
		if err := ds.InstallQueryColumns(cols); err != nil {
			return nil, 0, err
		}
	}
	return ing, lz.cursor, nil
}

// noteServed records ds as the epoch currently served and retires the
// previous epoch's engine from the page pool — resident columns evict,
// pinned ones when their in-flight scans finish. A no-op when paging is
// disabled. Recovery installs a paged engine only while nothing is served,
// so the epoch retired here is the one pagedGen names, if any.
func (s *Store) noteServed(ds *analysis.Dataset) {
	if s.pool == nil {
		return
	}
	s.servedMu.Lock()
	prev := s.servedDS
	s.servedDS = ds
	retire := prev != nil && prev != ds
	if retire {
		s.pagedGen = ""
	}
	s.servedMu.Unlock()
	if retire {
		prev.DropPagedColumns()
	}
}

// PageStats reports the page pool's residency and fault counters, zero when
// paging is disabled.
func (s *Store) PageStats() query.PageStats {
	if s.pool == nil {
		return query.PageStats{}
	}
	return s.pool.Stats()
}

// snapshotNames lists snapshot files newest-generation first.
func (s *Store) snapshotNames() []string {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	type gen struct {
		name   string
		cursor uint64
	}
	var gens []gen
	for _, name := range names {
		if cursor, ok := parseSnapshotName(name); ok {
			gens = append(gens, gen{name, cursor})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].cursor > gens[j].cursor })
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.name
	}
	return out
}

// removeTempSnapshots deletes, best effort, every snap-*.snap.tmp in the data
// directory. Only a write cut short by a crash leaves one — a failed write
// removes its own — and neither recovery nor pruning looks at temp files, so
// without this sweep each crash would leak a snapshot-sized file for good.
func (s *Store) removeTempSnapshots() {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if base, ok := strings.CutSuffix(name, tmpSuffix); ok {
			if _, ok := parseSnapshotName(base); ok {
				_ = s.fsys.Remove(joinPath(s.dir, name))
			}
		}
	}
}

// quarantine renames a failed snapshot aside so the next Open does not trip
// over it again, and counts it.
func (s *Store) quarantine(name string) error {
	path := joinPath(s.dir, name)
	if err := s.fsys.Rename(path, path+corruptSuffix); err != nil {
		return err
	}
	_ = s.fsys.SyncDir(s.dir)
	s.m.SnapshotCorruptQuarantined.Add(1)
	return nil
}

// commit is the ingestor's durability barrier: append the validated batch to
// the WAL (and, under FsyncAlways, reach stable storage) before any in-memory
// state changes. During recovery replay the batch is already in the log, so
// the hook is a gated no-op.
func (s *Store) commit(d ingest.Delta) error {
	if !s.live.Load() {
		return nil
	}
	return s.w.Append(d.Seq, encodeListings(d.Listings))
}

// Apply lands one delta through the wrapped ingestor (WAL append first via
// the commit hook) and drives the snapshot cadence.
func (s *Store) Apply(d ingest.Delta) (ingest.Result, error) {
	res, err := s.ing.Apply(d)
	if err == nil && res.Applied && s.opts.SnapshotEvery > 0 {
		s.snapMu.Lock()
		s.sinceSnap++
		due := s.sinceSnap >= s.opts.SnapshotEvery
		if due {
			s.sinceSnap = 0
		}
		s.snapMu.Unlock()
		if due {
			if serr := s.WriteSnapshot(); serr != nil {
				// The WAL stays authoritative; a failed snapshot costs replay
				// time, not correctness. Surface it on Err().
				s.snapMu.Lock()
				s.snapErr = serr
				s.snapMu.Unlock()
			}
		}
	}
	return res, err
}

// Cursor returns the next expected delta Seq.
func (s *Store) Cursor() uint64 { return s.ing.Cursor() }

// Dataset returns the current epoch's dataset (nil before the first
// non-empty batch).
func (s *Store) Dataset() *analysis.Dataset { return s.ing.Dataset() }

// Metrics returns the store's counters (for registering on a registry).
func (s *Store) Metrics() *Metrics { return s.m }

// Err reports the most recent automatic-snapshot failure, nil when the last
// cadence snapshot (if any) succeeded.
func (s *Store) Err() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapErr
}

// WriteSnapshot persists the current cursor, dataset and APK blobs as a new
// snapshot generation and prunes old ones. Safe to call concurrently with
// Apply — the ingestor hands out all three as one consistent state. At the
// cursor of a generation recovery refused (ErrSnapshotVersion: a format this
// build does not read, such as a newer build's) it writes nothing: replacing
// that file would lose the other build's data, and the WAL still holds
// every acknowledged delta.
func (s *Store) WriteSnapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	cursor, ds, blobs := s.ing.Snapshot()
	if s.unread[joinPath(s.dir, snapshotName(cursor))] {
		return nil
	}
	data := &snapshotData{cursor: cursor, crawlTime: time.Time{}}
	if ds != nil {
		data.crawlTime = ds.CrawlTime
		data.apps = ds.Apps
		cols, err := ds.ExportQueryColumns()
		if err != nil {
			return err
		}
		data.columns = cols
		data.blobs = make(map[appmeta.Key][]byte, len(blobs))
		for _, b := range blobs {
			data.blobs[b.Key] = b.APK
		}
	}
	if _, err := writeSnapshot(s.fsys, s.dir, data); err != nil {
		return err
	}
	s.m.setSnapshotWriteSeconds(time.Since(start).Seconds())
	s.m.LastSnapshotGeneration.Store(cursor)
	s.pruneSnapshots()
	s.snapErr = nil
	return nil
}

// pruneSnapshots removes, best effort, every generation that KeepSnapshots
// generations this build reads are newer than (quarantined *.corrupt files
// are kept for inspection). A generation recover refused counts toward no
// other's limit, so a rollback beside a newer build's generations keeps its
// own, and a refused one goes only once that many readable ones are newer.
// The generation the served paged engine reads is never removed: deltas
// that add no rows keep that engine while they advance the cursor.
func (s *Store) pruneSnapshots() {
	names := s.snapshotNames()
	if len(names) <= s.opts.KeepSnapshots {
		return
	}
	s.servedMu.Lock()
	paged := s.pagedGen
	s.servedMu.Unlock()
	newer := 0 // readable generations newer than name
	for _, name := range names {
		path := joinPath(s.dir, name)
		if newer >= s.opts.KeepSnapshots && path != paged {
			_ = s.fsys.Remove(path)
		}
		if !s.unread[path] {
			newer++
		}
	}
	_ = s.fsys.SyncDir(s.dir)
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.w.Sync()
		case <-s.stopSync:
			return
		}
	}
}

// Close flushes and closes the WAL. The store must not be used afterwards.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.stopSync != nil {
			close(s.stopSync)
			<-s.syncDone
		}
		if s.opts.Fsync != FsyncAlways {
			_ = s.w.Sync()
		}
		err = s.w.Close()
	})
	return err
}
