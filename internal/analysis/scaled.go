package analysis

import (
	"errors"
	"sort"

	"marketscope/internal/appmeta"
	"marketscope/internal/market"
	"marketscope/internal/synth"
)

// errScaledNoAPK marks every listing of a scaled dataset: the scale
// generator emits metadata only, so apk-category fields are null on every
// row, exactly like the paper's metadata catalog rows whose APK was never
// harvested.
var errScaledNoAPK = errors.New("analysis: scaled corpus has no APKs")

// NewScaledDataset materializes a metadata-only dataset from the streaming
// scale generator: cfg.Rows listings with full market metadata but no APK
// bytes, parsed artifacts or enrichment. It is the fixture of the scaling
// benchmarks (100k–1M rows) — QuerySource, Aggregate and the metadata
// analyses all work on it; apk- and enrichment-category fields are null on
// every row.
//
// Generation is streamed: only the final []*App accumulates, one compact
// record per listing, never the generator's intermediate state.
func NewScaledDataset(cfg synth.ScaleConfig) (*Dataset, error) {
	d := &Dataset{byMarket: map[string][]*App{}}
	err := synth.StreamListings(cfg, func(i int, rec appmeta.Record) error {
		app := &App{Meta: rec, ParseError: errScaledNoAPK}
		d.Apps = append(d.Apps, app)
		d.byMarket[rec.Market] = append(d.byMarket[rec.Market], app)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.CrawlTime = cfg.StartDate
	if len(d.Apps) > 0 {
		d.CrawlTime = d.Apps[len(d.Apps)-1].Meta.UpdateDate
	}

	// Attach profiles for the markets present, canonical study order first,
	// exactly as BuildDataset does.
	seen := map[string]bool{}
	for name := range d.byMarket {
		seen[name] = true
	}
	for _, p := range market.Profiles() {
		if seen[p.Name] {
			d.Markets = append(d.Markets, p)
			delete(seen, p.Name)
		}
	}
	var extra []string
	for name := range seen {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		d.Markets = append(d.Markets, market.Profile{Name: name})
	}
	return d, nil
}
