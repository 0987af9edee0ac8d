package durable_test

// The serving-side torture suite for paged snapshots: a store recovered over
// a version-2 snapshot with a page budget must answer every request
// byte-identically to the fully-materialized oracle — or degrade to a clean
// sentinel error — under lazy fetches, budget-forced eviction, concurrent
// pressure, injected fetch faults at recorded failpoints, and epoch swaps.
// The ingest-side crash torture lives in torture_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marketscope/internal/durable"
	"marketscope/internal/durable/errfs"
	"marketscope/internal/ingest"
	"marketscope/internal/query"
)

// pagedOpts is storeOpts with paging on: budget < 0 pages without a bound,
// budget > 0 enforces it.
func pagedOpts(t testing.TB, fsys durable.FS, budget int64) durable.Options {
	_, crawlTime := deltas(t)
	opts := storeOpts(fsys, crawlTime)
	opts.PageBudget = budget
	return opts
}

// buildPagedState ingests the full corpus, snapshots it and closes, leaving a
// filesystem whose newest snapshot covers every delta (empty WAL tail) — the
// image every paged-serving test recovers from.
func buildPagedState(t testing.TB) *errfs.MemFS {
	t.Helper()
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds)
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.Close()
	return fs
}

// pagedRequest is one request of the serving mix: the narrow scans of the
// battery (everything but the full dump, whose working set is the whole
// corpus) plus the grouped aggregation.
type pagedRequest struct {
	name string
	run  func(query.Source) (*query.Result, error)
}

func pagedRequests() []pagedRequest {
	var reqs []pagedRequest
	for i, q := range batteryQueries()[1:] {
		q := q
		reqs = append(reqs, pagedRequest{
			name: fmt.Sprintf("scan%d", i+1),
			run:  func(src query.Source) (*query.Result, error) { return src.Scan(q) },
		})
	}
	agg := query.Aggregate{
		GroupBy: []string{"market"},
		Aggregates: []query.AggSpec{
			{Op: query.AggCount, As: "n"},
			{Op: query.AggSum, Field: "downloads", As: "dl"},
		},
		Sort: []query.SortKey{{Field: "n", Desc: true}, {Field: "market"}},
	}
	reqs = append(reqs, pagedRequest{
		name: "aggregate",
		run: func(src query.Source) (*query.Result, error) {
			as, ok := src.(query.AggregateSource)
			if !ok {
				return nil, errors.New("source does not aggregate")
			}
			return as.Aggregate(agg)
		},
	})
	return reqs
}

// canonicalBytes is canonical() without the testing.TB, safe to call from
// workload goroutines (same marshalled shape, so the byte comparison holds).
func canonicalBytes(res *query.Result) []byte {
	b, _ := json.Marshal(struct {
		Fields []query.FieldInfo `json:"fields"`
		Rows   [][]any           `json:"rows"`
		Total  int               `json:"total"`
	}{res.Fields, res.Rows, res.Meta.TotalMatched})
	return b
}

// pagedMix runs every paged request against the materialized oracle and
// returns the mix with each request's expected canonical bytes. The oracle
// must serve them all.
func pagedMix(t testing.TB, upTo uint64) ([]pagedRequest, map[string][]byte) {
	t.Helper()
	oracle := oracleSource(t, upTo)
	reqs := pagedRequests()
	want := make(map[string][]byte)
	for _, r := range reqs {
		res, err := r.run(oracle)
		if err != nil {
			t.Fatalf("oracle %s: %v", r.name, err)
		}
		want[r.name] = canonicalBytes(res)
	}
	return reqs, want
}

// TestPagedServeMatchesOracle is the core equivalence claim: a store serving
// lazily out of a snapshot answers byte-identically to the materialized
// oracle, unbounded and under a budget a quarter of the touched bytes, with
// residency never exceeding the budget and eviction doing real work.
func TestPagedServeMatchesOracle(t *testing.T) {
	fs := buildPagedState(t)
	ds, _ := deltas(t)
	full := uint64(len(ds))
	reqs, want := pagedMix(t, full)

	// Unbounded: the whole battery (including the full dump and the internal
	// row-oracle cross-check) must match, columns paging in on first touch and
	// never out.
	s := openStore(t, pagedOpts(t, fs, -1))
	if st := s.PageStats(); st.ResidentBytes != 0 || st.Fetches != 0 {
		t.Fatalf("columns resident before first query: %+v", st)
	}
	requireSameState(t, sourceOf(s), oracleSource(t, full))
	st := s.PageStats()
	if st.Fetches == 0 || st.ResidentBytes == 0 {
		t.Fatalf("engine did not page: %+v", st)
	}
	if st.Evictions != 0 || st.Quarantines != 0 {
		t.Fatalf("unbounded pool evicted or quarantined: %+v", st)
	}
	s.Close()

	// Measure each request's pinned working set (fresh unbounded store per
	// request: resident afterwards is exactly what the request pinned) and the
	// union the whole mix touches.
	var maxSet int64
	for _, r := range reqs {
		sm := openStore(t, pagedOpts(t, fs, -1))
		if _, err := r.run(sourceOf(sm)); err != nil {
			t.Fatalf("%s unbounded: %v", r.name, err)
		}
		if w := sm.PageStats().ResidentBytes; w > maxSet {
			maxSet = w
		}
		sm.Close()
	}
	su := openStore(t, pagedOpts(t, fs, -1))
	for _, r := range reqs {
		if _, err := r.run(sourceOf(su)); err != nil {
			t.Fatalf("%s unbounded: %v", r.name, err)
		}
	}
	union := su.PageStats().ResidentBytes
	su.Close()

	// Budget: halfway between the largest single working set (so every
	// request is individually servable — the pool cannot evict pinned
	// columns) and the union the mix touches (so cycling through the mix must
	// evict).
	budget := maxSet + (union-maxSet)/2
	if budget >= union {
		t.Fatalf("corpus too small to exercise paging: max working set %d, union %d", maxSet, union)
	}
	t.Logf("paged serve: %d bytes touched, union %d, max working set %d, budget %d",
		st.ResidentBytes, union, maxSet, budget)

	s2 := openStore(t, pagedOpts(t, fs, budget))
	defer s2.Close()
	src := sourceOf(s2)
	for pass := 0; pass < 2; pass++ {
		for _, r := range reqs {
			res, err := r.run(src)
			if err != nil {
				t.Fatalf("pass %d %s under budget: %v", pass, r.name, err)
			}
			if got := canonicalBytes(res); !bytes.Equal(got, want[r.name]) {
				t.Fatalf("pass %d %s diverged:\n got %.300s\nwant %.300s", pass, r.name, got, want[r.name])
			}
			if bs := s2.PageStats(); bs.ResidentBytes > bs.Budget {
				t.Fatalf("resident %d over budget %d after %s", bs.ResidentBytes, bs.Budget, r.name)
			}
		}
	}
	bs := s2.PageStats()
	if bs.Evictions == 0 {
		t.Fatalf("mix over budget %d (union %d) never evicted: %+v", budget, union, bs)
	}
	if bs.Quarantines != 0 {
		t.Fatalf("healthy file quarantined: %+v", bs)
	}
}

// maxWorkingSet is the largest column set one request of reqs pins: each
// runs on a fresh unbounded store over fs, whose residency afterwards is
// exactly what the request pinned.
func maxWorkingSet(t *testing.T, fs *errfs.MemFS, reqs []pagedRequest) int64 {
	t.Helper()
	var maxSet int64
	for _, r := range reqs {
		sm := openStore(t, pagedOpts(t, fs, -1))
		if _, err := r.run(sourceOf(sm)); err != nil {
			t.Fatalf("%s unbounded: %v", r.name, err)
		}
		if w := sm.PageStats().ResidentBytes; w > maxSet {
			maxSet = w
		}
		sm.Close()
	}
	return maxSet
}

// TestPagedBudgetPressure hammers a budget sized to the single largest
// working set with concurrent workers: every answer is byte-identical or a
// clean ErrPageBudget degradation — never a wrong answer, never residency
// over budget — and a serial pass afterwards serves everything again.
func TestPagedBudgetPressure(t *testing.T) {
	fs := buildPagedState(t)
	ds, _ := deltas(t)
	reqs, want := pagedMix(t, uint64(len(ds)))
	maxSet := maxWorkingSet(t, fs, reqs)

	s := openStore(t, pagedOpts(t, fs, maxSet))
	defer s.Close()
	src := sourceOf(s)

	type outcome struct {
		name string
		body []byte
		err  error
	}
	const workers = 6
	outcomes := make(chan outcome, workers*len(reqs)*3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, r := range reqs {
					res, err := r.run(src)
					o := outcome{name: r.name, err: err}
					if err == nil {
						o.body = canonicalBytes(res)
					}
					outcomes <- o
				}
			}
		}()
	}
	wg.Wait()
	close(outcomes)

	served, degraded := 0, 0
	for o := range outcomes {
		switch {
		case o.err == nil:
			served++
			if !bytes.Equal(o.body, want[o.name]) {
				t.Fatalf("%s under pressure diverged:\n got %.300s\nwant %.300s", o.name, o.body, want[o.name])
			}
		case errors.Is(o.err, query.ErrPageBudget):
			degraded++
		default:
			t.Fatalf("%s under pressure: unexpected error %v", o.name, o.err)
		}
		if bs := s.PageStats(); bs.ResidentBytes > bs.Budget {
			t.Fatalf("resident %d over budget %d", bs.ResidentBytes, bs.Budget)
		}
	}
	if served == 0 {
		t.Fatal("every request degraded; the budget should admit one working set")
	}
	t.Logf("pressure: %d served, %d degraded, stats %+v", served, degraded, s.PageStats())

	// Pressure gone: a serial pass serves every request correctly again, and
	// cycling working sets through the tight budget must have evicted.
	for _, r := range reqs {
		res, err := r.run(src)
		if err != nil {
			t.Fatalf("%s after pressure: %v", r.name, err)
		}
		if got := canonicalBytes(res); !bytes.Equal(got, want[r.name]) {
			t.Fatalf("%s after pressure diverged", r.name)
		}
	}
	if bs := s.PageStats(); bs.Evictions == 0 {
		t.Fatalf("tight budget never evicted: %+v", bs)
	}
}

// hammer runs the mix on src from workers goroutines until the returned
// stop is called (at the latest by the test's cleanup), which waits for them
// to exit; rounds counts the mix rounds they finish. Every answer must equal
// want, or degrade with ErrPageBudget when the workers' working sets do not
// fit the budget together.
func hammer(t *testing.T, src query.Source, reqs []pagedRequest, want map[string][]byte,
	workers int, rounds *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, r := range reqs {
					res, err := r.run(src)
					switch {
					case err == nil:
						if got := canonicalBytes(res); !bytes.Equal(got, want[r.name]) {
							t.Errorf("%s under eviction diverged:\n got %.300s\nwant %.300s", r.name, got, want[r.name])
							return
						}
					case !errors.Is(err, query.ErrPageBudget):
						t.Errorf("%s under eviction: %v", r.name, err)
						return
					}
				}
				rounds.Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	t.Cleanup(stop)
	return stop
}

// waitRounds blocks until rounds reaches n, failing the test if the workers
// stopped short of it.
func waitRounds(t *testing.T, rounds *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for rounds.Load() < n {
		if t.Failed() || time.Now().After(deadline) {
			t.Fatalf("workers finished %d of %d rounds", rounds.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPagedResultsSurviveRecycling keeps every result a concurrent mix
// returns under the tightest budget that serves each request, and compares
// them with the oracle only after the last round: by then the memory of the
// columns the early results were read from has gone back to the free lists
// and been fetched into again. A result that aliased it (a plain string
// cell pointing into a read buffer) would no longer match. How many
// requests evict depends on how the workers interleave (between 43% and
// all of the served ones over 18 runs); at least a quarter must.
func TestPagedResultsSurviveRecycling(t *testing.T) {
	fs := buildPagedState(t)
	ds, _ := deltas(t)
	reqs, want := pagedMix(t, uint64(len(ds)))
	s := openStore(t, pagedOpts(t, fs, maxWorkingSet(t, fs, reqs)))
	defer s.Close()
	src := sourceOf(s)

	type kept struct {
		name string
		res  *query.Result
	}
	const workers, rounds = 4, 6
	results := make([][]kept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range reqs {
					r := reqs[(i+w)%len(reqs)]
					res, err := r.run(src)
					switch {
					case err == nil:
						results[w] = append(results[w], kept{r.name, res})
					case !errors.Is(err, query.ErrPageBudget):
						t.Errorf("%s: %v", r.name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	served := 0
	for _, rs := range results {
		for _, k := range rs {
			served++
			if got := canonicalBytes(k.res); !bytes.Equal(got, want[k.name]) {
				t.Fatalf("kept %s changed after its columns' memory was reused:\n got %.300s\nwant %.300s",
					k.name, got, want[k.name])
			}
		}
	}
	st := s.PageStats()
	t.Logf("%d of %d requests served, %+v", served, workers*rounds*len(reqs), st)
	if st.Evictions < int64(served)/4 {
		t.Fatalf("%d evictions over %d served requests: the budget did not force reuse", st.Evictions, served)
	}
}

// TestPagedSnapshotUnderEviction writes snapshots of a paged store while a
// concurrent mix keeps evicting and fetching columns. Export holds no pins,
// so it must not read the pool's columns, whose memory an eviction hands to
// the next fetch: the new generation must reopen, materialized and paged, to
// the oracle's state.
func TestPagedSnapshotUnderEviction(t *testing.T) {
	fs := buildPagedState(t)
	ds, _ := deltas(t)
	full := uint64(len(ds))
	reqs, want := pagedMix(t, full)
	s := openStore(t, pagedOpts(t, fs, maxWorkingSet(t, fs, reqs)))
	var rounds atomic.Int64
	stop := hammer(t, sourceOf(s), reqs, want, 4, &rounds)
	before := s.PageStats()
	for i := int64(1); i <= 8; i++ {
		waitRounds(t, &rounds, i)
		if err := s.WriteSnapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	stop()
	if st := s.PageStats(); st.Evictions == before.Evictions {
		t.Fatalf("nothing evicted while the snapshots were written: %+v", st)
	}
	s.Close()

	for _, budget := range []int64{0, -1} {
		s2 := openStore(t, pagedOpts(t, fs, budget))
		m := s2.Metrics()
		if q, r := m.SnapshotCorruptQuarantined.Load(), m.WALRecordsReplayed.Load(); q != 0 || r != 0 {
			t.Fatalf("budget %d: reopen quarantined %d snapshots and replayed %d WAL records", budget, q, r)
		}
		requireSameState(t, sourceOf(s2), oracleSource(t, full))
		s2.Close()
	}
}

// TestPagedDeltaUnderEviction applies a row-adding delta over a paged engine
// while a concurrent mix keeps evicting and fetching its columns, and keeps
// that mix running on the retired engine afterwards, so its fetches decode
// into the memory the retirement freed. The append holds no pins, so it must
// not carry the pool's columns into the new epoch: the new engine must
// answer like a cold build.
func TestPagedDeltaUnderEviction(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:len(ds)-1])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.Close()

	reqs, want := pagedMix(t, uint64(len(ds)-1))
	s2 := openStore(t, pagedOpts(t, fs, maxWorkingSet(t, fs, reqs)))
	defer s2.Close()
	old := sourceOf(s2)
	var rounds atomic.Int64
	stop := hammer(t, old, reqs, want, 4, &rounds)
	waitRounds(t, &rounds, 2)
	if res, err := s2.Apply(ds[len(ds)-1]); err != nil || !res.Applied {
		t.Fatalf("apply over paged engine: %+v %v", res, err)
	}
	if sourceOf(s2) == old {
		t.Fatal("the delta swapped no engine")
	}
	waitRounds(t, &rounds, rounds.Load()+12)
	stop()
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

// servingFailpoints replays the serving workload over an unarmed injector and
// returns the op indices of snapshot reads performed while serving (after
// recovery finished) — the fetch-path failpoints — sampled to a cap.
func servingFailpoints(t *testing.T, fs *errfs.MemFS, reqs []pagedRequest, kinds map[string]bool, cap int) []int {
	t.Helper()
	inj := errfs.NewInjector(fs)
	s := openStore(t, pagedOpts(t, inj, -1))
	lenOpen := len(inj.Log())
	src := sourceOf(s)
	for _, r := range reqs {
		if _, err := r.run(src); err != nil {
			t.Fatalf("recording %s: %v", r.name, err)
		}
	}
	s.Close()
	log := inj.Log()
	var points []int
	for i := lenOpen; i < len(log); i++ {
		if kinds[log[i].Kind] && strings.Contains(log[i].Path, "snap-") {
			points = append(points, i)
		}
	}
	if len(points) == 0 {
		t.Fatalf("no serving-time snapshot %v ops recorded (%d ops, %d during open)", kinds, len(log), lenOpen)
	}
	stride := len(points)/cap + 1
	var sampled []int
	for i := 0; i < len(points); i += stride {
		sampled = append(sampled, points[i])
	}
	return sampled
}

// TestPagedFetchTorture arms a fault at sampled serving-time fetch ops — one
// transient error, one short read, one silent bit flip, and a persistent
// crash — while a concurrent scan+aggregate mix runs. Every answer must be
// byte-identical to the oracle or a clean degradation sentinel; transient
// faults must be absorbed by retries, flips by quarantine+rebuild, and after
// a crash the untouched on-disk image must recover completely.
func TestPagedFetchTorture(t *testing.T) {
	fs := buildPagedState(t)
	ds, _ := deltas(t)
	full := uint64(len(ds))
	reqs, want := pagedMix(t, full)

	cap := 8
	if testing.Short() {
		cap = 3
	}
	// readat failpoints exercise every mode; open failpoints only the modes
	// that can fire on an open.
	readats := servingFailpoints(t, fs, reqs, map[string]bool{"readat": true}, cap)
	opens := servingFailpoints(t, fs, reqs, map[string]bool{"open": true}, 2)

	runMix := func(src query.Source) (served, degraded int) {
		type outcome struct {
			name string
			body []byte
			err  error
		}
		const workers = 4
		outcomes := make(chan outcome, workers*len(reqs))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range reqs {
					res, err := r.run(src)
					o := outcome{name: r.name, err: err}
					if err == nil {
						o.body = canonicalBytes(res)
					}
					outcomes <- o
				}
			}()
		}
		wg.Wait()
		close(outcomes)
		for o := range outcomes {
			switch {
			case o.err == nil:
				served++
				if !bytes.Equal(o.body, want[o.name]) {
					t.Fatalf("%s diverged under fault:\n got %.300s\nwant %.300s", o.name, o.body, want[o.name])
				}
			case errors.Is(o.err, query.ErrPageUnavailable), errors.Is(o.err, query.ErrPageBudget):
				degraded++
			default:
				t.Fatalf("%s under fault: unexpected error %v", o.name, o.err)
			}
		}
		return served, degraded
	}

	rng := rand.New(rand.NewSource(20180601))
	cases := []struct {
		mode   errfs.Mode
		points []int
	}{
		{errfs.ModeErr, append(append([]int(nil), readats...), opens...)},
		{errfs.ModeShortRead, readats},
		{errfs.ModeBitFlip, readats},
		{errfs.ModeCrash, append(append([]int(nil), readats...), opens...)},
	}
	for _, c := range cases {
		for _, f := range c.points {
			label := fmt.Sprintf("%v@%d", c.mode, f)
			inj := errfs.NewInjector(fs)
			inj.Arm(f, c.mode, rng)
			s, err := durable.Open(pagedOpts(t, inj, -1))
			if err != nil {
				t.Fatalf("%s: open failed (failpoint inside recovery?): %v", label, err)
			}
			served, degraded := runMix(sourceOf(s))
			st := s.PageStats()
			hits := inj.Hits()
			switch c.mode {
			case errfs.ModeErr, errfs.ModeShortRead:
				// One transient failure is within the retry budget: nothing
				// may degrade, and a hit must show up as a retry.
				if degraded != 0 {
					t.Fatalf("%s: %d requests degraded on a single transient fault", label, degraded)
				}
				if hits > 0 && st.Retries == 0 {
					t.Fatalf("%s: fault hit but no retry counted: %+v", label, st)
				}
			case errfs.ModeBitFlip:
				// A flipped page read fails its checksum: the column is
				// quarantined and rebuilt from items — still no wrong answer.
				if degraded != 0 {
					t.Fatalf("%s: %d requests degraded on a bit flip", label, degraded)
				}
				if hits > 0 && st.Quarantines == 0 {
					t.Fatalf("%s: flip hit but nothing quarantined: %+v", label, st)
				}
			case errfs.ModeCrash:
				// The disk died mid-serve: requests either answered correctly
				// (columns already resident) or degraded cleanly.
				if served+degraded != 4*len(reqs) {
					t.Fatalf("%s: %d+%d outcomes, want %d", label, served, degraded, 4*len(reqs))
				}
			}
			s.Close() // best effort: close ops fail under ModeCrash

			if c.mode == errfs.ModeCrash {
				// Serving never writes: the on-disk image is untouched, so a
				// process restart over it must recover everything.
				s2 := openStore(t, pagedOpts(t, fs, -1))
				requireSameState(t, sourceOf(s2), oracleSource(t, full))
				s2.Close()
			}
		}
	}
}

// TestPagedEpochSwapRetiresPages recovers a paged engine, serves from it,
// then applies a new delta: the ingest swap must retire the old engine's
// residency (the budget belongs to the new epoch) while answers stay exact.
func TestPagedEpochSwapRetiresPages(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:len(ds)-1])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.Close()

	s2 := openStore(t, pagedOpts(t, fs, -1))
	defer s2.Close()
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds)-1)))
	st := s2.PageStats()
	if st.ResidentBytes == 0 {
		t.Fatalf("paged engine served nothing: %+v", st)
	}

	if res, err := s2.Apply(ds[len(ds)-1]); err != nil || !res.Applied {
		t.Fatalf("apply over paged engine: %+v %v", res, err)
	}
	after := s2.PageStats()
	if after.ResidentBytes != 0 {
		t.Fatalf("epoch swap left %d bytes resident", after.ResidentBytes)
	}
	if after.Evictions == 0 {
		t.Fatalf("retirement evicted nothing: %+v", after)
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

// TestPagedGenerationSurvivesPruning serves a paged engine while deltas that
// add no rows (re-crawls) advance the cursor and, with SnapshotEvery 1, write
// a generation each. Pruning must keep the generation the engine pages from,
// so every request still answers like the oracle. Once a row-adding delta
// retires that engine, the next prune drops the generation, and the dir
// holds KeepSnapshots generations again.
func TestPagedGenerationSurvivesPruning(t *testing.T) {
	ds, crawlTime := deltas(t)
	last := len(ds) - 1
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:last])
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.Close()

	generations := func() int {
		names, err := fs.ReadDir("data")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, name := range names {
			if strings.HasSuffix(name, ".snap") {
				n++
			}
		}
		return n
	}
	opts := pagedOpts(t, fs, -1)
	opts.SnapshotEvery = 1
	s2 := openStore(t, opts)
	defer s2.Close()
	paged := sourceOf(s2)
	for i := 0; i < 3; i++ {
		recrawl := ingest.Delta{Seq: s2.Cursor(), Listings: ds[1].Listings}
		if res, err := s2.Apply(recrawl); err != nil || !res.Applied || res.Added != 0 {
			t.Fatalf("re-crawl %d: %+v %v", i, res, err)
		}
	}
	if err := s2.Err(); err != nil {
		t.Fatalf("cadence snapshot: %v", err)
	}
	if sourceOf(s2) != paged {
		t.Fatal("a delta that adds no rows swapped the paged engine")
	}
	requireSameState(t, paged, oracleSource(t, uint64(last)))
	if n := generations(); n != 3 {
		t.Fatalf("%d generations beside a served paged engine, want the 2 newest plus its own", n)
	}

	if res, err := s2.Apply(ingest.Delta{Seq: s2.Cursor(), Listings: ds[last].Listings}); err != nil || res.Added == 0 {
		t.Fatalf("row-adding delta: %+v %v", res, err)
	}
	if n := generations(); n != 2 {
		t.Fatalf("%d generations after the paged engine retired, want 2", n)
	}
	requireSameState(t, sourceOf(s2), oracleSource(t, uint64(len(ds))))
}

// TestStoreSkipsFutureSnapshotGeneration drops a snapshot this build does not
// read into the directory as the newest generation — one from a "newer
// build" (MSNAP magic, unknown version), or a real snapshot whose header
// claims version 1: recovery must skip it without quarantining — renaming a
// newer binary's file would destroy its data — and serve the real state, on
// both the paged and the materialized recovery path.
func TestStoreSkipsFutureSnapshotGeneration(t *testing.T) {
	ds, crawlTime := deltas(t)
	full := uint64(len(ds))
	current := fmt.Sprintf("snap-%016x.snap", full)
	for _, unread := range []struct {
		name string
		blob func(current []byte) []byte
	}{
		{"future", func([]byte) []byte { return append([]byte("MSNAP009"), bytes.Repeat([]byte{0xee}, 200)...) }},
		{"v1", func(current []byte) []byte { return durable.PatchSnapshotVersion(current, 1) }},
	} {
		for _, budget := range []int64{0, -1} {
			label := fmt.Sprintf("%s, budget %d", unread.name, budget)
			fs := errfs.New()
			s := openStore(t, storeOpts(fs, crawlTime))
			applyAll(t, s, ds)
			if err := s.WriteSnapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			s.Close()

			cur, err := fs.ReadFile("data/" + current)
			if err != nil {
				t.Fatal(err)
			}
			newest := fmt.Sprintf("snap-%016x.snap", full+7)
			blob := unread.blob(cur)
			if err := fs.WriteFile("data/"+newest, blob); err != nil {
				t.Fatal(err)
			}

			opts := storeOpts(fs, crawlTime)
			opts.PageBudget = budget
			s2 := openStore(t, opts)
			if n := s2.Metrics().SnapshotCorruptQuarantined.Load(); n != 0 {
				t.Fatalf("%s: unread snapshot quarantined (%d)", label, n)
			}
			if c := s2.Cursor(); c != full {
				t.Fatalf("%s: recovered cursor %d, want %d", label, c, full)
			}
			if g := s2.Metrics().LastSnapshotGeneration.Load(); g != full {
				t.Fatalf("%s: recovered from generation %d, want %d", label, g, full)
			}
			requireSameState(t, sourceOf(s2), oracleSource(t, full))
			s2.Close()

			names, err := fs.ReadDir("data")
			if err != nil {
				t.Fatal(err)
			}
			if !contains(names, newest) {
				t.Fatalf("%s: unread snapshot gone from %v", label, names)
			}
			for _, n := range names {
				if strings.HasSuffix(n, ".corrupt") {
					t.Fatalf("%s: quarantine file %s appeared", label, n)
				}
			}
			got, err := fs.ReadFile("data/" + newest)
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("%s: unread snapshot modified (err %v)", label, err)
			}
		}
	}
}

// TestPruneCountsReadableGenerations rolls a store back beside two
// generations of a newer build at higher cursors and writes a snapshot per
// delta: pruning must keep both unread files, which it may never count
// among the generations it keeps, and the store's own two newest
// generations, so the reopen recovers from the newest and replays no WAL
// record.
func TestPruneCountsReadableGenerations(t *testing.T) {
	ds, crawlTime := deltas(t)
	n := uint64(len(ds))
	snap := func(cursor uint64) string { return fmt.Sprintf("snap-%016x.snap", cursor) }
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:n-2])
	s.Close()
	future := append([]byte("MSNAP009"), bytes.Repeat([]byte{0xee}, 200)...)
	for _, cursor := range []uint64{n + 10, n + 11} {
		if err := fs.WriteFile("data/"+snap(cursor), future); err != nil {
			t.Fatal(err)
		}
	}

	opts := storeOpts(fs, crawlTime)
	opts.SnapshotEvery = 1
	s2 := openStore(t, opts)
	applyAll(t, s2, ds[n-2:])
	if err := s2.Err(); err != nil {
		t.Fatalf("cadence snapshot: %v", err)
	}
	s2.Close()
	names, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{snap(n + 11), snap(n + 10), snap(n), snap(n - 1)} {
		if !contains(names, want) {
			t.Fatalf("%s pruned; the dir holds %v", want, names)
		}
	}

	s3 := openStore(t, storeOpts(fs, crawlTime))
	defer s3.Close()
	if g := s3.Metrics().LastSnapshotGeneration.Load(); g != n {
		t.Fatalf("recovered from generation %d, want %d", g, n)
	}
	if r := s3.Metrics().WALRecordsReplayed.Load(); r != 0 {
		t.Fatalf("reopen replayed %d WAL records, want 0", r)
	}
	requireSameState(t, sourceOf(s3), oracleSource(t, n))
}

// TestRollbackKeepsNewerSnapshot rolls a store back beside a newer build's
// generation at the very cursor its next delta reaches. The cadence snapshot
// at that cursor must write nothing, so the newer build's file stays
// byte-identical, and a reopen must still recover every acknowledged delta
// (the WAL holds them).
func TestRollbackKeepsNewerSnapshot(t *testing.T) {
	ds, crawlTime := deltas(t)
	n := uint64(len(ds))
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:n-2])
	s.Close()
	path := fmt.Sprintf("data/snap-%016x.snap", n-1)
	future := append([]byte("MSNAP009"), bytes.Repeat([]byte{0xee}, 200)...)
	if err := fs.WriteFile(path, future); err != nil {
		t.Fatal(err)
	}

	opts := storeOpts(fs, crawlTime)
	opts.SnapshotEvery = 1
	s2 := openStore(t, opts)
	applyAll(t, s2, ds[n-2:n-1])
	if err := s2.Err(); err != nil {
		t.Fatalf("cadence snapshot: %v", err)
	}
	s2.Close()
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, future) {
		t.Fatalf("the newer build's generation was replaced by %d bytes of this build's", len(got))
	}

	s3 := openStore(t, storeOpts(fs, crawlTime))
	defer s3.Close()
	requireSameState(t, sourceOf(s3), oracleSource(t, n-1))
}

// TestStoreRefusesFutureWAL patches the WAL magic to a newer version: Open
// must fail with ErrWALVersion — refusing to repair, truncate or rename a
// newer binary's log — and leave the file byte-identical.
func TestStoreRefusesFutureWAL(t *testing.T) {
	ds, crawlTime := deltas(t)
	fs := errfs.New()
	s := openStore(t, storeOpts(fs, crawlTime))
	applyAll(t, s, ds[:3])
	s.Close()

	blob, err := fs.ReadFile("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	patched := append([]byte(nil), blob...)
	copy(patched, "MSWAL002")
	if err := fs.WriteFile("data/wal.log", patched); err != nil {
		t.Fatal(err)
	}

	if _, err := durable.Open(storeOpts(fs, crawlTime)); !errors.Is(err, durable.ErrWALVersion) {
		t.Fatalf("open over future WAL: %v, want ErrWALVersion", err)
	}
	after, err := fs.ReadFile("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, patched) {
		t.Fatal("refused WAL was modified")
	}
}
