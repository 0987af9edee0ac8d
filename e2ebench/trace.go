package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
)

// Serve mode: the analysis endpoint marketsim -analysis -data-dir serves,
// assembled here from the same public functions, with a span recorded
// around every call into a layer. Spans stay in memory and are written out
// when the process is told to stop.

// span is one timed call. Parent links it to the call that caused it (0
// for a root); Req groups the spans of one request.
type span struct {
	Name   string           `json:"n"`
	ID     uint64           `json:"id"`
	Parent uint64           `json:"p,omitempty"`
	Req    uint64           `json:"r,omitempty"`
	Start  int64            `json:"s"`
	End    int64            `json:"e"`
	Attrs  map[string]int64 `json:"a,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans and holds the parents that calls without a context
// (the filesystem, the ingest applier) attach to. Ingest applies are
// serialized by the ingestor and recovery runs before serving, so one
// current open, apply and snapshot span at a time is exact.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	open, apply, applyReq, snap, ingestRoot atomic.Uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin allocates a span id and stamps its start.
func (t *tracer) begin() (uint64, int64) { return t.ids.Add(1), t.now() }

func (t *tracer) add(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// fsParent is the span a filesystem call belongs to: the snapshot being
// written, else the apply in progress, else recovery.
func (t *tracer) fsParent() (uint64, uint64) {
	if id := t.snap.Load(); id != 0 {
		return id, t.applyReq.Load()
	}
	if id := t.apply.Load(); id != 0 {
		return id, t.applyReq.Load()
	}
	return t.open.Load(), 0
}

type spanKey struct{}

type spanRef struct{ id, req uint64 }

// handler wraps the market server: every request but the operational
// endpoints becomes a root span named market.serve.
func (t *tracer) handler(srv *market.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == market.MetricsPath || r.URL.Path == market.HealthPath || r.Method != http.MethodPost {
			srv.ServeHTTP(w, r)
			return
		}
		id, start := t.begin()
		isIngest := r.URL.Path == ingest.IngestPath
		if isIngest {
			t.ingestRoot.Store(id)
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		srv.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id, id})))
		attrs := map[string]int64{"bytes": cw.n, "status": int64(cw.status)}
		if isIngest {
			attrs["ingest"] = 1
		}
		if cw.Header().Get("X-Cache") == "HIT" {
			attrs["hit"] = 1
		}
		t.add(span{Name: "market.serve", ID: id, Req: id, Start: start, Attrs: attrs})
	})
}

// countingWriter counts the bytes written to the connection.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedSource wraps an engine as every query.Source face market asserts,
// so the server takes the same context-aware paths it takes on the bare
// engine.
type tracedSource struct {
	src query.Source
	t   *tracer
}

func (s tracedSource) Fields() []query.FieldInfo { return s.src.Fields() }

func (s tracedSource) Scan(q query.Query) (*query.Result, error) {
	return s.ScanContext(context.Background(), q)
}

func (s tracedSource) ScanContext(ctx context.Context, q query.Query) (*query.Result, error) {
	id, start := s.t.begin()
	var res *query.Result
	var err error
	if cs, ok := s.src.(query.ContextSource); ok {
		res, err = cs.ScanContext(ctx, q)
	} else {
		res, err = s.src.Scan(q)
	}
	s.t.query(ctx, "query.scan", id, start, res, err)
	return res, err
}

func (s tracedSource) Aggregate(a query.Aggregate) (*query.Result, error) {
	return s.AggregateContext(context.Background(), a)
}

func (s tracedSource) AggregateContext(ctx context.Context, a query.Aggregate) (*query.Result, error) {
	agg, ok := s.src.(query.AggregateSource)
	if !ok {
		return nil, errors.New("e2ebench: wrapped source does not aggregate")
	}
	id, start := s.t.begin()
	var res *query.Result
	var err error
	if cs, ok := agg.(query.ContextAggregateSource); ok {
		res, err = cs.AggregateContext(ctx, a)
	} else {
		res, err = agg.Aggregate(a)
	}
	s.t.query(ctx, "query.agg", id, start, res, err)
	return res, err
}

// query records one engine call with the counts its result reports.
func (t *tracer) query(ctx context.Context, name string, id uint64, start int64, res *query.Result, err error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	attrs := map[string]int64{}
	if errors.Is(err, query.ErrPageBudget) {
		attrs["budget_err"] = 1
	}
	if res != nil {
		attrs["returned"] = int64(res.Meta.Returned)
		if ex := res.Meta.Explain; ex != nil {
			attrs["candidates"] = int64(ex.Candidates)
			attrs["residual"] = int64(ex.ResidualScanned)
			attrs["seg_skipped"] = int64(ex.SegmentsSkipped)
			attrs["seg_scanned"] = int64(ex.SegmentsScanned)
			if ex.IndexUsed != "" {
				attrs["index"] = 1
			}
		}
	}
	t.add(span{Name: name, ID: id, Parent: ref.id, Req: ref.req, Start: start, Attrs: attrs})
}

// tracedApplier wraps the durable store as the ingest handler's Applier.
type tracedApplier struct {
	st *durable.Store
	t  *tracer
}

func (a tracedApplier) Apply(d ingest.Delta) (ingest.Result, error) {
	id, start := a.t.begin()
	root := a.t.ingestRoot.Load()
	a.t.applyReq.Store(root)
	a.t.apply.Store(id)
	res, err := a.st.Apply(d)
	a.t.apply.Store(0)
	attrs := map[string]int64{"rows": int64(len(d.Listings)), "added": int64(res.Added)}
	if res.Sealed {
		attrs["sealed"] = 1
	}
	a.t.add(span{Name: "ingest.apply", ID: id, Parent: root, Req: root, Start: start, Attrs: attrs})
	return res, err
}

func (a tracedApplier) Cursor() uint64             { return a.st.Cursor() }
func (a tracedApplier) Dataset() *analysis.Dataset { return a.st.Dataset() }

// timingFS is a durable.FS recording a span per write, sync and read. It
// forwards the whole-file ReadFile fast path of the filesystem it wraps, so
// recovery reads exactly as it does on the bare OS filesystem.
type timingFS struct {
	durable.FS
	t *tracer
	// snapTmp is the snapshot temp file being written, "" when none; mu
	// guards it against page-ins opening files concurrently.
	mu        sync.Mutex
	snapTmp   string
	snapStart int64
	snapBytes int64
}

func (f *timingFS) fsSpan(name string, start int64, bytes int64) {
	parent, req := f.t.fsParent()
	if parent == 0 && name == "durable.read" {
		// A read outside recovery and ingest is a column page-in on the
		// request path; with concurrent readers its request is unknown.
		name = "durable.page_read"
	}
	id := f.t.ids.Add(1)
	f.t.add(span{Name: name, ID: id, Parent: parent, Req: req, Start: start, Attrs: map[string]int64{"bytes": bytes}})
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	_, start := f.t.begin()
	b, err := f.FS.(interface {
		ReadFile(string) ([]byte, error)
	}).ReadFile(name)
	f.fsSpan("durable.read", start, int64(len(b)))
	return b, err
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	f.mu.Lock()
	if flag&os.O_CREATE != 0 && strings.HasSuffix(name, ".tmp") {
		id, start := f.t.begin()
		f.snapTmp, f.snapStart, f.snapBytes = name, start, 0
		f.t.snap.Store(id)
	}
	snap := name == f.snapTmp
	f.mu.Unlock()
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, wal: strings.HasSuffix(name, "wal.log"), snap: snap}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	defer f.mu.Unlock()
	if oldpath == f.snapTmp {
		id := f.t.snap.Swap(0)
		f.t.add(span{Name: "durable.snapshot", ID: id, Parent: f.t.apply.Load(), Req: f.t.applyReq.Load(),
			Start: f.snapStart, Attrs: map[string]int64{"bytes": f.snapBytes}})
		f.snapTmp = ""
	}
	return err
}

func (f *timingFS) SyncDir(dir string) error {
	_, start := f.t.begin()
	err := f.FS.SyncDir(dir)
	f.fsSpan("durable.fsync", start, 0)
	return err
}

type timedFile struct {
	durable.File
	fs        *timingFS
	wal, snap bool
}

func (tf *timedFile) Write(p []byte) (int, error) {
	_, start := tf.fs.t.begin()
	n, err := tf.File.Write(p)
	name := "durable.write"
	switch {
	case tf.wal:
		name = "durable.wal_write"
	case tf.snap:
		name = "durable.snapshot_write"
		tf.fs.mu.Lock()
		tf.fs.snapBytes += int64(n)
		tf.fs.mu.Unlock()
	}
	tf.fs.fsSpan(name, start, int64(n))
	return n, err
}

func (tf *timedFile) Sync() error {
	_, start := tf.fs.t.begin()
	err := tf.File.Sync()
	tf.fs.fsSpan("durable.fsync", start, 0)
	return err
}

func (tf *timedFile) Read(p []byte) (int, error) {
	_, start := tf.fs.t.begin()
	n, err := tf.File.Read(p)
	tf.fs.fsSpan("durable.read", start, int64(n))
	return n, err
}

func (tf *timedFile) ReadAt(p []byte, off int64) (int, error) {
	_, start := tf.fs.t.begin()
	n, err := tf.File.ReadAt(p, off)
	tf.fs.fsSpan("durable.read", start, int64(n))
	return n, err
}

// serveDump is what serve mode writes when it stops.
type serveDump struct {
	Spans    []span           `json:"spans"`
	Counters map[string]int64 `json:"counters"`
}

// runtimeSample reads the runtime counters serve mode reports.
func runtimeSample() (allocBytes, gcCycles, heapBytes uint64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func runServe(args []string) error {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	dataDir := fl.String("data-dir", "", "durable data directory")
	fsyncMode := fl.String("fsync", "always", "WAL sync policy: always, interval or off")
	snapshotEvery := fl.Int("snapshot-every", 0, "snapshot cadence in applied deltas")
	pageBudget := fl.Int64("page-budget", 0, "resident column budget (0 = materialize)")
	out := fl.String("spans", "", "file the spans and counters are written to on stop")
	if err := fl.Parse(args); err != nil {
		return err
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)

	t := newTracer()
	tfs := &timingFS{FS: durable.OSFS, t: t}
	var srv *market.Server
	ingOpts := ingest.Options{
		Enrich:    analysis.DefaultEnrichOptions(),
		CrawlTime: time.Now(),
		Publish: func(d *analysis.Dataset) {
			parent, req := t.apply.Load(), t.applyReq.Load()
			id, start := t.begin()
			src := d.QuerySource()
			t.add(span{Name: "analysis.query_source", ID: id, Parent: parent, Req: req, Start: start})
			id, start = t.begin()
			srv.SwapSource(tracedSource{src, t})
			t.add(span{Name: "market.swap", ID: id, Parent: parent, Req: req, Start: start})
		},
	}
	openID, openStart := t.begin()
	t.open.Store(openID)
	st, err := durable.Open(durable.Options{
		FS: tfs, Dir: *dataDir, Fsync: fsync,
		SnapshotEvery: *snapshotEvery, PageBudget: *pageBudget, Ingest: ingOpts,
	})
	t.open.Store(0)
	if err != nil {
		return err
	}
	t.add(span{Name: "durable.open", ID: openID, Start: openStart})
	defer st.Close()
	ds := st.Dataset()
	if ds == nil {
		return errors.New("recovered no dataset")
	}
	srv = market.NewServer(market.NewStore(market.Profile{Name: "analysis"}))
	srv.AttachScan(tracedSource{ds.QuerySource(), t})
	srv.AttachPost(ingest.IngestPath, ingest.Handler(tracedApplier{st, t}))
	srv.ConfigureServing(market.DefaultServeConfig())
	st.Metrics().Register(srv.MetricsRegistry())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: t.handler(srv), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	// Peaks are sampled; counters are deltas over the serving period.
	pages0 := st.PageStats()
	alloc0, gc0, _ := runtimeSample()
	var heapPeak, residentPeak uint64
	sample := func() {
		_, _, heap := runtimeSample()
		heapPeak = max(heapPeak, heap)
		residentPeak = max(residentPeak, uint64(st.PageStats().ResidentBytes))
	}
	fmt.Printf("analysis http://%s  (traced)\n", ln.Addr())
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-tick.C:
			sample()
		case <-stop:
			break wait
		case err := <-served:
			return err
		}
	}
	sample()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	alloc1, gc1, _ := runtimeSample()
	pages1 := st.PageStats()
	dump := serveDump{Spans: t.spans, Counters: map[string]int64{
		"alloc_bytes":    int64(alloc1 - alloc0),
		"gc_cycles":      int64(gc1 - gc0),
		"heap_peak":      int64(heapPeak),
		"page_fetches":   pages1.Fetches - pages0.Fetches,
		"page_evictions": pages1.Evictions - pages0.Evictions,
		"resident_peak":  int64(residentPeak),
	}}
	b, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}
