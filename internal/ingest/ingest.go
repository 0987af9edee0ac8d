// Package ingest turns append-only listing deltas into fully enriched,
// epoch-swapped datasets. A crawler (or any producer) POSTs batches of
// listings with a strictly sequential cursor; each accepted batch runs
// through the incremental build pipeline (analysis.IngestState) into a fresh
// dataset whose query engine is published atomically — typically via
// market.(*Server).SwapSource — so readers never block and every query stays
// consistent at one epoch.
//
// Cursor discipline (the retry contract):
//
//   - Seq == cursor: the batch applies atomically; the cursor advances.
//   - Seq <  cursor: an idempotent no-op — the producer is replaying a batch
//     whose acknowledgement it lost; it gets the current cursor back.
//   - Seq >  cursor: ErrCursorGap (HTTP 409) — the producer skipped ahead;
//     nothing changes, it must resync from the cursor endpoint.
//
// A batch the backend fails to persist returns ErrCommit (HTTP 503): nothing
// changes, and the producer retries the same batch later.
//
// The feed is append-only at (market, package) granularity: a key already
// ingested is skipped (and counted), never updated — matching the paper's
// one-shot crawl semantics where a listing is observed once. Deltas may
// therefore safely overlap; a full re-crawl POSTed as one delta degrades to
// the new listings only.
package ingest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
)

// Listing is one crawled listing in a delta: the metadata record plus the
// optional APK archive (base64 in JSON).
type Listing struct {
	Record appmeta.Record `json:"record"`
	APK    []byte         `json:"apk,omitempty"`
}

// Blob is the APK archive one kept listing carried.
type Blob struct {
	Key appmeta.Key
	APK []byte
}

// Delta is one append-only batch at one cursor position.
type Delta struct {
	Seq      uint64    `json:"seq"`
	Listings []Listing `json:"listings"`
}

// Result reports what applying a delta did.
type Result struct {
	// Seq echoes the delta's position; Cursor is the next expected Seq.
	Seq    uint64 `json:"seq"`
	Cursor uint64 `json:"cursor"`
	// Applied is false for an idempotent replay of an already-landed batch.
	Applied bool `json:"applied"`
	// Added / Skipped split the batch into new listings and already-known
	// (market, package) keys; Listings is the dataset size afterwards.
	Added    int `json:"added"`
	Skipped  int `json:"skipped"`
	Listings int `json:"listings"`
	// Redetected and Sealed surface the incremental build's work: how many
	// old listings' detections changed, and whether the new engine was
	// sealed from the previous epoch's columns.
	Redetected int  `json:"redetected"`
	Sealed     bool `json:"sealed"`
}

// ErrCursorGap is returned when a delta's Seq skips ahead of the cursor.
var ErrCursorGap = errors.New("ingest: delta seq is ahead of the cursor")

// ErrCommit wraps a failed Options.Commit: the batch was valid and at the
// cursor, but the backend could not persist it (a failed or wedged
// write-ahead log). It is a server fault, not a bad delta; the cursor and
// dataset are unchanged and the producer should retry later.
var ErrCommit = errors.New("ingest: commit failed")

// Options configures an Ingestor.
type Options struct {
	// Enrich tunes the incremental enrichment exactly as it tunes
	// analysis.Dataset.Enrich; fixed for the ingestor's lifetime.
	Enrich analysis.EnrichOptions
	// CrawlTime stamps every published dataset.
	CrawlTime time.Time
	// Publish, when non-nil, receives each new epoch's dataset after its
	// batch lands (not called for empty, duplicate-only or replayed
	// batches). Called while the batch lock is held, so publishes are
	// ordered; keep it cheap — an atomic swap, not a rebuild.
	Publish func(*analysis.Dataset)
	// Commit, when non-nil, is called with every batch that is about to
	// apply — already validated and exactly at the cursor — before any state
	// changes. An error aborts the batch with the cursor and dataset
	// untouched, and is returned to the producer. The durable layer appends
	// the batch to its write-ahead log here, which is what makes an
	// acknowledgement mean "persisted": once Commit returns nil, nothing in
	// the apply path can fail. Replayed (Seq < cursor) and gapped batches
	// never reach Commit. Called under the batch lock.
	Commit func(Delta) error
}

// Ingestor accepts deltas and maintains the current dataset epoch. All
// methods are safe for concurrent use; Apply serializes batch application
// while published datasets keep serving lock-free.
type Ingestor struct {
	mu    sync.Mutex
	opts  Options
	state *analysis.IngestState
	next  uint64
	seen  map[appmeta.Key]bool
	ds    *analysis.Dataset
	// blobs holds, in landing order, the APK bytes of every kept listing
	// that carried them — what a durable snapshot must persist next to the
	// records. Append-only, so Snapshot can hand out a prefix uncopied. It
	// keeps those bytes alive for the ingestor's lifetime.
	blobs []Blob
}

// New builds an ingestor at cursor 0 with no dataset.
func New(opts Options) *Ingestor {
	return &Ingestor{
		opts:  opts,
		state: analysis.NewIngestState(opts.Enrich),
		seen:  map[appmeta.Key]bool{},
	}
}

// Cursor returns the next expected delta Seq.
func (ing *Ingestor) Cursor() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.next
}

// Dataset returns the current epoch's dataset (nil before the first
// non-empty batch).
func (ing *Ingestor) Dataset() *analysis.Dataset {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.ds
}

// Snapshot returns the cursor, the dataset and the APK bytes of every kept
// listing that carried them as one consistent state — what a durable snapshot
// must capture atomically (reads made separately could straddle a batch).
// The blobs are a capacity-capped prefix of the ingestor's own list: later
// batches append past it, never into it, so the caller may read it freely
// but must not modify it.
func (ing *Ingestor) Snapshot() (uint64, *analysis.Dataset, []Blob) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.next, ing.ds, ing.blobs[:len(ing.blobs):len(ing.blobs)]
}

// Restore rebuilds an ingestor from durable state: the records of every
// listing landed so far (in dataset order) and the cursor they were landed
// under. The dataset is built in ONE incremental append — which the
// equivalence contract on analysis.IngestState guarantees is identical to a
// cold BuildDatasetFromRecords+Enrich over the same records — so a restored
// ingestor is indistinguishable from one that applied the original batches.
// Publish and Commit hooks are not invoked. apkOf resolves APK bytes exactly
// as at first ingest, and the bytes it resolves seed the blob list Snapshot
// returns; records must already be deduplicated.
func Restore(opts Options, cursor uint64, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) (*Ingestor, error) {
	ing := New(opts)
	ing.seen = make(map[appmeta.Key]bool, len(records))
	for i := range records {
		if err := records[i].Validate(); err != nil {
			return nil, fmt.Errorf("ingest: restore record %d: %w", i, err)
		}
		key := records[i].Key()
		if ing.seen[key] {
			return nil, fmt.Errorf("ingest: restore: duplicate key %s/%s", key.Market, key.Package)
		}
		ing.seen[key] = true
		if apkOf != nil {
			if b, ok := apkOf(key); ok {
				ing.blobs = append(ing.blobs, Blob{Key: key, APK: b})
			}
		}
	}
	if len(records) > 0 {
		ds, _ := ing.state.Append(nil, opts.CrawlTime, records, apkOf)
		ing.ds = ds
	}
	ing.next = cursor
	return ing, nil
}

// Apply lands one delta under the cursor discipline documented on the
// package. A batch is atomic: it either fully applies (cursor advances,
// dataset swaps) or leaves both exactly as they were.
func (ing *Ingestor) Apply(d Delta) (Result, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	res := Result{Seq: d.Seq, Cursor: ing.next}
	if ing.ds != nil {
		res.Listings = ing.ds.NumListings()
	}
	if d.Seq < ing.next {
		return res, nil
	}
	if d.Seq > ing.next {
		return res, fmt.Errorf("%w: got seq %d, want %d", ErrCursorGap, d.Seq, ing.next)
	}
	// Validate before touching any state: a rejected batch must leave the
	// cursor and the dataset exactly where they were.
	for i := range d.Listings {
		if err := d.Listings[i].Record.Validate(); err != nil {
			return res, fmt.Errorf("ingest: listing %d: %w", i, err)
		}
	}
	// Commit is the durability barrier: the batch is valid and at the
	// cursor, so once the hook persists it nothing below can fail — an
	// acknowledgement therefore always means "replayable from the log".
	if ing.opts.Commit != nil {
		if err := ing.opts.Commit(d); err != nil {
			return res, fmt.Errorf("%w: seq %d: %w", ErrCommit, d.Seq, err)
		}
	}

	keptListings := keep(ing.seen, d.Listings)
	res.Skipped = len(d.Listings) - len(keptListings)
	kept := make([]appmeta.Record, 0, len(keptListings))
	apks := make(map[appmeta.Key][]byte, len(keptListings))
	for _, l := range keptListings {
		kept = append(kept, l.Record)
		if l.APK != nil {
			apks[l.Record.Key()] = l.APK
			ing.blobs = append(ing.blobs, Blob{Key: l.Record.Key(), APK: l.APK})
		}
	}
	res.Added = len(kept)

	if len(kept) > 0 {
		ds, stats := ing.state.Append(ing.ds, ing.opts.CrawlTime, kept, func(k appmeta.Key) ([]byte, bool) {
			b, ok := apks[k]
			return b, ok
		})
		ing.ds = ds
		res.Redetected, res.Sealed, res.Listings = stats.Redetected, stats.EngineSealed, ds.NumListings()
	}
	ing.next = d.Seq + 1
	res.Cursor = ing.next
	res.Applied = true
	if res.Added > 0 && ing.opts.Publish != nil {
		ing.opts.Publish(ing.ds)
	}
	return res, nil
}

// keep canonicalizes one batch: listings sorted into (market, package) order,
// first occurrence of each not-yet-seen key kept and marked in seen,
// everything else dropped.
func keep(seen map[appmeta.Key]bool, listings []Listing) []Listing {
	batch := append([]Listing(nil), listings...)
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i].Record, batch[j].Record
		if a.Market != b.Market {
			return a.Market < b.Market
		}
		return a.Package < b.Package
	})
	kept := batch[:0]
	for _, l := range batch {
		key := l.Record.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, l)
	}
	return kept
}
