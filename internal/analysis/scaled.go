package analysis

import (
	"errors"

	"marketscope/internal/appmeta"
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
	var apps []*App
	err := synth.StreamListings(cfg, func(i int, rec appmeta.Record) error {
		app := &App{Meta: rec, ParseError: errScaledNoAPK}
		apps = append(apps, app)
		d.byMarket[rec.Market] = append(d.byMarket[rec.Market], app)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.setApps(apps)
	d.CrawlTime = cfg.StartDate
	if len(apps) > 0 {
		d.CrawlTime = apps[len(apps)-1].Meta.UpdateDate
	}
	// Attach profiles for the markets present, exactly as BuildDataset does.
	d.attachProfiles()
	return d, nil
}
