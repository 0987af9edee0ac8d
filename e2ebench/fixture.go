package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// corpusRows is the size of the seeded corpus every workload serves.
const corpusRows = 100_000

// fixtureDelta is the number of corpus listings per delta in the fixture's
// WAL.
const fixtureDelta = 4000

// keepFixtures bounds how many seeds' fixtures stay cached on disk.
const keepFixtures = 3

// fixture is one seed's corpus data dir: a WAL holding the whole corpus as
// fixed-size deltas plus a snapshot that covers it, so a recovery loads the
// snapshot and replays nothing.
type fixture struct {
	Dir       string    `json:"-"`
	Seed      uint64    `json:"seed"`
	Listings  int       `json:"listings"`
	Cursor    uint64    `json:"cursor"`
	ColBytes  int64     `json:"col_bytes"`
	CrawlTime time.Time `json:"crawl_time"`
	// Sample holds the first corpus records; re-posting them is a re-crawl
	// that finds nothing new.
	Sample []appmeta.Record `json:"sample"`
}

// corpusConfig is the seeded corpus shape. NumApps and NumDevelopers are
// pinned so the delta stream (deltaConfig) draws from the same populations.
func corpusConfig(seed uint64) synth.ScaleConfig {
	return synth.ScaleConfig{Seed: seed, Rows: corpusRows, NumApps: corpusRows / 3, NumDevelopers: corpusRows/24 + 1}
}

// ingestOptions are the ingest options both the fixture and every in-process
// build use; a fixed crawl time keeps the epoch reproducible.
func ingestOptions(crawl time.Time) ingest.Options {
	return ingest.Options{Enrich: analysis.DefaultEnrichOptions(), CrawlTime: crawl}
}

// loadFixture returns the cached fixture for seed built by the code code
// names (see codeID), building it first when absent. Fixtures live under
// root/fixtures/<seed>-<code>; a build goes to a temporary dir renamed into
// place, so a crash never leaves half a fixture.
func loadFixture(root string, seed uint64, code string) (*fixture, error) {
	dir := filepath.Join(root, "fixtures", fmt.Sprintf("%d-%s", seed, code))
	meta := filepath.Join(dir, "fixture.json")
	if b, err := os.ReadFile(meta); err == nil {
		fx := &fixture{}
		if err := json.Unmarshal(b, fx); err != nil {
			return nil, fmt.Errorf("read fixture meta: %w", err)
		}
		fx.Dir = filepath.Join(dir, "data")
		now := time.Now()
		_ = os.Chtimes(dir, now, now)
		return fx, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	fx, err := buildFixture(filepath.Join(tmp, "data"), seed)
	if err != nil {
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	b, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	fx.Dir = filepath.Join(dir, "data")
	pruneFixtures(filepath.Join(root, "fixtures"))
	return fx, nil
}

// codeID names the code that writes and serves a fixture: a hash of the
// given binaries, this one (which links internal/*) and marketsim. The
// build directory outlives a checkout moving between commits, and a data
// dir written by one commit's WAL and snapshot code must not be recovered
// by another's in a measured run.
func codeID(binaries ...string) (string, error) {
	h := sha256.New()
	for _, b := range binaries {
		f, err := os.Open(b)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hash %s: %w", b, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func buildFixture(dataDir string, seed uint64) (*fixture, error) {
	var listings []ingest.Listing
	err := synth.StreamListings(corpusConfig(seed), func(_ int, rec appmeta.Record) error {
		listings = append(listings, ingest.Listing{Record: rec})
		return nil
	})
	if err != nil {
		return nil, err
	}
	fx := &fixture{Seed: seed, CrawlTime: listings[len(listings)-1].Record.UpdateDate}
	for _, l := range listings[:64] {
		fx.Sample = append(fx.Sample, l.Record)
	}
	st, err := durable.Open(durable.Options{Dir: dataDir, Fsync: durable.FsyncOff, Ingest: ingestOptions(fx.CrawlTime)})
	if err != nil {
		return nil, err
	}
	// Deltas in stream order, as a crawler would post them: each delta is
	// stored sorted by (market, package), but consecutive deltas hold
	// consecutive release dates, so zone maps on release_date can prune.
	var res ingest.Result
	for seq := 0; err == nil && seq*fixtureDelta < len(listings); seq++ {
		batch := listings[seq*fixtureDelta : min((seq+1)*fixtureDelta, len(listings))]
		res, err = st.Apply(ingest.Delta{Seq: uint64(seq), Listings: batch})
		if err == nil && !res.Applied {
			err = fmt.Errorf("corpus delta %d not applied: %+v", seq, res)
		}
	}
	if err == nil {
		err = st.WriteSnapshot()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fx.Listings, fx.Cursor = res.Listings, res.Cursor

	// The materialized column footprint, which the paged workload's budget
	// is a quarter of: open lazily without a bound and touch every column.
	lazy, err := durable.Open(durable.Options{Dir: dataDir, Fsync: durable.FsyncOff, PageBudget: -1, Ingest: ingestOptions(fx.CrawlTime)})
	if err != nil {
		return nil, err
	}
	defer lazy.Close()
	if _, err := lazy.Dataset().QuerySource().Scan(query.Query{Limit: 1}); err != nil {
		return nil, fmt.Errorf("column sweep: %w", err)
	}
	fx.ColBytes = lazy.PageStats().ResidentBytes
	return fx, nil
}

// pruneFixtures removes all but the most recently used fixtures.
func pruneFixtures(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var all []aged
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.IsDir() {
			all = append(all, aged{e.Name(), info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.After(all[j].mod) })
	for i := keepFixtures; i < len(all); i++ {
		_ = os.RemoveAll(filepath.Join(dir, all[i].name))
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
