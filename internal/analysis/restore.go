package analysis

import (
	"fmt"

	"marketscope/internal/appmeta"
	"marketscope/internal/query"
)

// Durable-snapshot support: exporting a dataset's sealed column store and
// installing a previously exported one on a freshly restored dataset. The
// dataset itself (the *App rows) is always rebuilt from records + APK bytes
// through the ordinary incremental pipeline — that is what keeps a restored
// process byte-identical to a cold build — and the installed columns only
// spare the engine its boxed re-extraction of every field over every row.

// ExportQueryColumns materializes and exports every query field's column
// from the dataset's cached engine. The dataset must be enriched — an unenriched
// column store would be missing every enrichment field and is not worth
// persisting.
func (d *Dataset) ExportQueryColumns() ([]query.ColumnData, error) {
	if !d.enriched.Load() {
		return nil, fmt.Errorf("analysis: export columns before enrichment")
	}
	eng, ok := d.QuerySource().(*query.Engine[*App])
	if !ok {
		return nil, fmt.Errorf("analysis: query source %T is not an exportable engine", d.QuerySource())
	}
	return eng.ExportColumns(), nil
}

// InstallQueryColumns replaces the dataset's lazy engine build with one whose
// columns come pre-installed from a durable snapshot. The caller asserts the
// columns were exported from a dataset identical to this one (same records,
// same APK bytes, same enrichment options); everything structural is
// validated by the import, and the durable layer's recovery suite asserts
// value agreement against the boxed-extractor oracle.
func (d *Dataset) InstallQueryColumns(cols []query.ColumnData) error {
	if !d.enriched.Load() {
		return fmt.Errorf("analysis: install columns before enrichment")
	}
	eng, err := query.NewEngineFromColumns(appFieldRegistry(d), d.Apps, cols)
	if err != nil {
		return err
	}
	d.queryMu.Lock()
	d.querySrc = eng
	d.queryEnriched = true
	d.queryMu.Unlock()
	return nil
}

// InstallPagedQueryColumns is InstallQueryColumns' bigger-than-RAM variant:
// the engine's columns stay on disk behind fetcher and page in on demand
// through pool's byte budget. Query results are byte-identical to the
// materialized engine's; only residency differs.
func (d *Dataset) InstallPagedQueryColumns(fetcher query.ColumnFetcher, pool *query.PagePool) error {
	if !d.enriched.Load() {
		return fmt.Errorf("analysis: install columns before enrichment")
	}
	eng, err := query.NewEnginePaged(appFieldRegistry(d), d.Apps, fetcher, pool)
	if err != nil {
		return err
	}
	d.queryMu.Lock()
	d.querySrc = eng
	d.queryEnriched = true
	d.queryMu.Unlock()
	return nil
}

// DropPagedColumns retires the dataset's engine from its page pool, if it has
// one: resident columns evict (pinned ones when their scans finish) and the
// budget belongs to the successor epoch. A no-op on nil datasets and on
// datasets serving a materialized engine.
func (d *Dataset) DropPagedColumns() {
	if d == nil {
		return
	}
	d.queryMu.Lock()
	eng, _ := d.querySrc.(*query.Engine[*App])
	d.queryMu.Unlock()
	if eng != nil {
		eng.RetirePages()
	}
}

// APKBytesOf adapts a blob map to the apkOf callback shape the build and
// restore paths take.
func APKBytesOf(blobs map[appmeta.Key][]byte) func(appmeta.Key) ([]byte, bool) {
	return func(k appmeta.Key) ([]byte, bool) {
		b, ok := blobs[k]
		return b, ok
	}
}
