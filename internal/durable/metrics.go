package durable

import (
	"math"
	"sync/atomic"

	"marketscope/internal/metrics"
	"marketscope/internal/query"
)

// Metrics collects the durability layer's recovery and snapshot counters.
// They are plain atomics — recovery runs before any registry exists — and
// Register mirrors them onto a metrics.Registry at scrape time so they show
// up on /metrics next to the serving instruments.
type Metrics struct {
	// WALRecordsReplayed counts records replayed from the WAL at the last
	// recovery (snapshot tail + cold-rebuild replays combined).
	WALRecordsReplayed atomic.Int64
	// WALTailTruncations counts torn tails truncated during recovery.
	WALTailTruncations atomic.Int64
	// SnapshotCorruptQuarantined counts snapshot files that failed to load
	// and were renamed aside.
	SnapshotCorruptQuarantined atomic.Int64
	// LastSnapshotGeneration is the cursor of the newest snapshot written or
	// loaded, 0 when none exists.
	LastSnapshotGeneration atomic.Uint64
	// snapshotLoadBits and snapshotWriteBits are the float64 bit patterns of
	// the seconds the last successful snapshot load and write took.
	snapshotLoadBits  atomic.Uint64
	snapshotWriteBits atomic.Uint64
	// pagePool is the store's column page pool, attached by Open when paging
	// is enabled; the paged_* gauges read through it (zero when absent).
	pagePool atomic.Pointer[query.PagePool]
}

func (m *Metrics) attachPagePool(p *query.PagePool) { m.pagePool.Store(p) }

func (m *Metrics) pageStats() query.PageStats {
	if p := m.pagePool.Load(); p != nil {
		return p.Stats()
	}
	return query.PageStats{}
}

func (m *Metrics) setSnapshotLoadSeconds(s float64) {
	m.snapshotLoadBits.Store(math.Float64bits(s))
}

// SnapshotLoadSeconds reports the duration of the last successful snapshot
// load, 0 when recovery never loaded one.
func (m *Metrics) SnapshotLoadSeconds() float64 {
	return math.Float64frombits(m.snapshotLoadBits.Load())
}

func (m *Metrics) setSnapshotWriteSeconds(s float64) {
	m.snapshotWriteBits.Store(math.Float64bits(s))
}

// SnapshotWriteSeconds reports the duration of the last successful snapshot
// write, from exporting the state to the directory fsync that made the file
// visible; 0 when this process wrote none.
func (m *Metrics) SnapshotWriteSeconds() float64 {
	return math.Float64frombits(m.snapshotWriteBits.Load())
}

// Register publishes the counters on reg as scrape-time gauges.
func (m *Metrics) Register(reg *metrics.Registry) {
	reg.GaugeFunc("durable_wal_records_replayed",
		"WAL records replayed during the last recovery.",
		func() float64 { return float64(m.WALRecordsReplayed.Load()) })
	reg.GaugeFunc("durable_wal_tail_truncations",
		"Torn WAL tails truncated during recovery.",
		func() float64 { return float64(m.WALTailTruncations.Load()) })
	reg.GaugeFunc("durable_snapshot_load_seconds",
		"Seconds the last successful snapshot load took.",
		m.SnapshotLoadSeconds)
	reg.GaugeFunc("durable_snapshot_write_seconds",
		"Seconds the last successful snapshot write took, export to directory fsync.",
		m.SnapshotWriteSeconds)
	reg.GaugeFunc("durable_snapshot_corrupt_quarantined",
		"Snapshot files quarantined after failing validation.",
		func() float64 { return float64(m.SnapshotCorruptQuarantined.Load()) })
	reg.GaugeFunc("durable_last_snapshot_generation",
		"Cursor of the newest snapshot generation, 0 when none.",
		func() float64 { return float64(m.LastSnapshotGeneration.Load()) })
	reg.GaugeFunc("paged_resident_bytes",
		"Decoded bytes of snapshot columns currently resident in the page pool.",
		func() float64 { return float64(m.pageStats().ResidentBytes) })
	reg.GaugeFunc("paged_fetches",
		"Column page-in fetches started (including retries' first attempts).",
		func() float64 { return float64(m.pageStats().Fetches) })
	reg.GaugeFunc("paged_hits",
		"Column acquires that pinned an already resident column without fetching.",
		func() float64 { return float64(m.pageStats().Hits) })
	reg.GaugeFunc("paged_evictions",
		"Resident columns evicted to stay under the page budget.",
		func() float64 { return float64(m.pageStats().Evictions) })
	reg.GaugeFunc("paged_fetch_retries",
		"Transient fetch failures retried with backoff.",
		func() float64 { return float64(m.pageStats().Retries) })
	reg.GaugeFunc("paged_quarantines",
		"Columns quarantined after checksum failure and rebuilt from rows.",
		func() float64 { return float64(m.pageStats().Quarantines) })
}
