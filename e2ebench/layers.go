package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minCoverage is the share of the market.serve spans' wall time in which
// their trees nest: every child inside its parent and no two siblings
// overlapping. Only there do the self times partition a root's wall time.
const minCoverage = 0.9

// runTraced runs the workload twice on fresh copies of the fixture: once
// against marketsim (the untraced baseline) and once against serve mode,
// then derives the per-layer metrics from serve mode's spans.
func runTraced(o options) (*result, error) {
	p, err := makePlan(o)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(o.work, "run")
	defer os.RemoveAll(runDir)
	dataDir := filepath.Join(runDir, "data")

	sim, _, err := startTimed(p.fx, dataDir, simArgs(o, p.fx, dataDir))
	if err != nil {
		return nil, err
	}
	plain, err := drive(o, p, sim)
	sim.kill()
	if err != nil {
		return nil, err
	}
	if err := validate(o, plain); err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}

	spansFile := filepath.Join(runDir, "spans.json")
	argv := []string{o.self, "serve", "-data-dir", dataDir, "-spans", spansFile,
		"-fsync", o.workload.fsync, "-snapshot-every", fmt.Sprint(o.workload.snapshotEvery)}
	if o.workload.paged {
		argv = append(argv, "-page-budget", fmt.Sprint(p.fx.ColBytes/4))
	}
	srv, _, err := startTimed(p.fx, dataDir, argv)
	if err != nil {
		return nil, err
	}
	traced, err := drive(o, p, srv)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.terminate(30 * time.Second); err != nil {
		return nil, fmt.Errorf("serve mode: %w", err)
	}
	if err := validate(o, traced); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	b, err := os.ReadFile(spansFile)
	if err != nil {
		return nil, err
	}
	var dump serveDump
	if err := json.Unmarshal(b, &dump); err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}

	res := tally(traced)
	plainRes := tally(plain)
	res.Attempted += plainRes.Attempted
	res.Failed += plainRes.Failed
	same := mismatches(p.check, traced.served, plain.served, "traced vs untraced") == 0
	res.Correct = res.Correct && plainRes.Correct && same
	plainLat := latencies(plain)
	overhead := ratio(latencies(traced)["loadgen.read_p50_ms"].Value, plainLat["loadgen.read_p50_ms"].Value)
	res.Metrics = layerMetrics(dump, traced)
	// The client-side latencies are those of the untraced pass.
	for k, v := range plainLat {
		res.Metrics[k] = v
	}
	res.Metrics.set("trace.overhead_ratio", overhead, "ratio")
	if c := res.Metrics["trace.coverage_ratio"].Value; c < minCoverage {
		return nil, fmt.Errorf("spans nest in only %.3f of the request spans' wall time, want at least %.2f", c, minCoverage)
	}
	return res, nil
}

// tree indexes spans by id and by parent.
type tree struct {
	byID     map[uint64]*span
	children map[uint64][]*span
}

func newTree(spans []span) *tree {
	t := &tree{byID: map[uint64]*span{}, children: map[uint64][]*span{}}
	for i := range spans {
		s := &spans[i]
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// self is s's duration minus the part of it its children cover.
func (t *tree) self(s *span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range t.children[s.ID] {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - time.Duration(covered)
}

// misplaced is the time, over s's subtree, that child spans spend outside
// their parent or overlapping an earlier sibling. It is 0 exactly when the
// self times in the subtree partition s's wall time.
func (t *tree) misplaced(s *span) time.Duration {
	kids := append([]*span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var d, end int64
	for i, c := range kids {
		d += max(0, s.Start-c.Start) + max(0, c.End-s.End)
		if i > 0 && c.Start < end {
			d += min(end, c.End) - c.Start
		}
		end = max(end, c.End)
		d += int64(t.misplaced(c))
	}
	return time.Duration(d)
}

// layerMetrics derives every per-layer metric; a layer a workload does not
// exercise reports 0.
func layerMetrics(d serveDump, m *measured) metrics {
	t := newTree(d.Spans)
	out := metrics{}
	by := map[string][]*span{}
	for i := range d.Spans {
		s := &d.Spans[i]
		by[s.Name] = append(by[s.Name], s)
	}
	durs := func(name string, unit func(time.Duration) float64, keep func(*span) bool) []float64 {
		var xs []float64
		for _, s := range by[name] {
			if keep == nil || keep(s) {
				xs = append(xs, unit(s.dur()))
			}
		}
		return xs
	}
	sumAttr := func(ss []*span, key string) float64 {
		n := 0.0
		for _, s := range ss {
			n += float64(s.Attrs[key])
		}
		return n
	}
	isRead := func(s *span) bool { return s.Attrs["ingest"] == 0 }

	// market: the serving chain around the engine.
	var reads []*span
	var serveSelf []float64
	var rootWall, misnested time.Duration
	for _, s := range by["market.serve"] {
		rootWall += s.dur()
		misnested += t.misplaced(s)
		if isRead(s) {
			reads = append(reads, s)
			serveSelf = append(serveSelf, us(t.self(s)))
		}
	}
	serve := durs("market.serve", us, isRead)
	out.set("market.serve_p50_us", quantile(serve, 0.5), "us")
	out.set("market.serve_p99_us", quantile(serve, 0.99), "us")
	out.set("market.self_p50_us", quantile(serveSelf, 0.5), "us")
	out.set("market.cache_hit_ratio", ratio(sumAttr(reads, "hit"), float64(len(reads))), "ratio")
	out.set("market.resp_bytes_mean", ratio(sumAttr(reads, "bytes"), float64(len(reads))), "bytes")
	delta := func(k string) float64 { return m.after[k] - m.before[k] }
	out.set("market.shed", delta("market_http_shed_total"), "count")
	out.set("market.timeouts", delta("market_http_timeouts_total"), "count")
	out.set("market.paged_degraded", delta("market_paged_degraded_total"), "count")
	out.set("market.swap_p50_us", quantile(durs("market.swap", us, nil), 0.5), "us")

	// query: the engine calls and what their results report.
	scans, aggs := durs("query.scan", us, nil), durs("query.agg", us, nil)
	out.set("query.scan_p50_us", quantile(scans, 0.5), "us")
	out.set("query.scan_p99_us", quantile(scans, 0.99), "us")
	out.set("query.agg_p50_us", quantile(aggs, 0.5), "us")
	out.set("query.agg_p99_us", quantile(aggs, 0.99), "us")
	queries := append(append([]*span(nil), by["query.scan"]...), by["query.agg"]...)
	skipped := sumAttr(queries, "seg_skipped")
	out.set("query.examined_per_returned", ratio(sumAttr(queries, "candidates"), sumAttr(queries, "returned")), "ratio")
	out.set("query.residual_rows_mean", ratio(sumAttr(queries, "residual"), float64(len(queries))), "rows")
	out.set("query.zone_skip_ratio", ratio(skipped, skipped+sumAttr(queries, "seg_scanned")), "ratio")
	out.set("query.index_hit_ratio", ratio(sumAttr(queries, "index"), float64(len(queries))), "ratio")
	out.set("query.page_fetches", float64(d.Counters["page_fetches"]), "count")
	out.set("query.page_evictions", float64(d.Counters["page_evictions"]), "count")
	out.set("query.page_resident_peak_mb", float64(d.Counters["resident_peak"])/(1<<20), "MiB")
	out.set("query.page_budget_errors", sumAttr(queries, "budget_err"), "count")

	// ingest and analysis: the applier and the publish hook.
	var applySelf []float64
	added, sealed := 0.0, 0.0
	for _, s := range by["ingest.apply"] {
		applySelf = append(applySelf, ms(t.self(s)))
		if s.Attrs["added"] > 0 {
			added++
			sealed += float64(s.Attrs["sealed"])
		}
	}
	applies := durs("ingest.apply", ms, nil)
	out.set("ingest.apply_p50_ms", quantile(applies, 0.5), "ms")
	out.set("ingest.apply_p80_ms", quantile(applies, 0.8), "ms")
	out.set("ingest.self_p50_ms", quantile(applySelf, 0.5), "ms")
	out.set("ingest.sealed_ratio", ratio(sealed, added), "ratio")
	out.set("analysis.query_source_p50_us", quantile(durs("analysis.query_source", us, nil), 0.5), "us")

	// durable: recovery, the WAL, snapshots and page reads, as the timing
	// filesystem saw them.
	var openMs, openRead float64
	for _, s := range by["durable.open"] {
		openMs += ms(s.dur())
		for _, c := range t.children[s.ID] {
			openRead += float64(c.Attrs["bytes"])
		}
	}
	out.set("durable.open_ms", openMs, "ms")
	out.set("durable.open_read_mb", openRead/(1<<20), "MiB")
	out.set("durable.wal_append_p50_us", quantile(durs("durable.wal_write", us, nil), 0.5), "us")
	out.set("durable.fsync_p50_ms", quantile(durs("durable.fsync", ms, func(s *span) bool { return s.Parent != 0 && t.byID[s.Parent].Name != "durable.open" }), 0.5), "ms")
	out.set("durable.fsyncs", float64(len(by["durable.fsync"])), "count")
	out.set("durable.wal_bytes_per_row", ratio(sumAttr(by["durable.wal_write"], "bytes"), sumAttr(by["ingest.apply"], "rows")), "bytes")
	out.set("durable.snapshot_p50_ms", quantile(durs("durable.snapshot", ms, nil), 0.5), "ms")
	out.set("durable.snapshot_mb", ratio(sumAttr(by["durable.snapshot"], "bytes"), float64(len(by["durable.snapshot"])))/(1<<20), "MiB")
	out.set("durable.page_read_p50_us", quantile(durs("durable.page_read", us, nil), 0.5), "us")
	out.set("durable.page_read_mb", sumAttr(by["durable.page_read"], "bytes")/(1<<20), "MiB")

	// runtime: the serving process's allocator and collector.
	out.set("runtime.alloc_kb_per_req", ratio(float64(d.Counters["alloc_bytes"])/1024, float64(len(by["market.serve"]))), "KiB")
	out.set("runtime.gc_cycles", float64(d.Counters["gc_cycles"]), "count")
	out.set("runtime.heap_peak_mb", float64(d.Counters["heap_peak"])/(1<<20), "MiB")

	// loadgen and the trace itself.
	var late []float64
	for _, s := range append(append([]sample(nil), m.nominal...), m.high...) {
		late = append(late, ms(s.late))
	}
	out.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	out.set("loadgen.sent", float64(len(late)+len(m.acks)), "count")
	out.set("trace.coverage_ratio", ratio(float64(max(0, rootWall-misnested)), float64(rootWall)), "ratio")
	return out
}
