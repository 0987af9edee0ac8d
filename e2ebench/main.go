// Command e2ebench is marketscope's end-to-end benchmark. It builds a seeded
// 100k-row corpus into a durable data dir, spawns the real marketsim
// -analysis on a fresh copy of it, drives one workload over loopback TCP
// with an open-loop generator, checks the answers against the engine's
// reference paths, and prints one JSON result line.
//
//	e2ebench --workload scan-miss|hot-ingest|paged --seed N --seconds S --trace 0|1
//
// With --trace 1 the same request sequences run instead against this
// binary's own serve mode: the analysis stack assembled from the public
// functions of market, query, ingest, analysis and durable, with a span
// recorded around each call into a layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run starts the server to time set-up;
// the median is reported.
const setupRepeats = 7

// maxLateMs rejects a run whose generator sent its p99 request later than
// this after it was due with a connection free.
const maxLateMs = 20.0

// nominalShare is the part of the measured seconds spent at the nominal
// rate; the rest runs at the high rate.
const nominalShare = 0.5

// warmSeconds of the workload's own mix run at the nominal rate before
// anything is timed, so the engine's lazy column caches and indexes are
// built, and the hot templates cached, before the first measured request.
const warmSeconds = 2.0

// checkSample is how many distinct requests are checked against the oracle.
const checkSample = 8

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	work     string // build and run directory inside the checkout
	self     string // this binary, for serve mode
	sim      string // the marketsim binary
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench serve:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	name := fs.String("workload", "", "scan-miss, hot-ingest or paged")
	seed := fs.Uint64("seed", 1, "workload seed: corpus, requests and deltas")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced in-process stack and reports per-layer metrics")
	work := fs.String("work", ".bench_build", "build and run directory")
	_ = fs.Parse(os.Args[1:])

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	o := options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: *work, self: self, sim: filepath.Join(*work, "marketsim"),
	}
	var res *result
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runUntraced(o)
	}
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// plan is a run's generated inputs.
type plan struct {
	fx      *fixture
	warm    []request
	nominal []request
	high    []request
	check   []request
	want    []answer
	deltas  [][]byte
}

func makePlan(o options) (*plan, error) {
	code, err := codeID(o.self, o.sim)
	if err != nil {
		return nil, err
	}
	fx, err := loadFixture(o.work, o.seed, code)
	if err != nil {
		return nil, err
	}
	w := o.workload
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rand.New(rand.NewPCG(o.seed, h.Sum64()))
	nWarm := int(w.nominalRate * warmSeconds)
	nNom := int(w.nominalRate * o.seconds * nominalShare)
	nHigh := int(w.highRate * o.seconds * (1 - nominalShare))
	all := w.reads(r, nWarm+nNom+nHigh)
	p := &plan{fx: fx, warm: all[:nWarm], nominal: all[nWarm : nWarm+nNom], high: all[nWarm+nNom:]}
	p.check = distinct(all[nWarm:], checkSample)
	if p.want, err = oracleAnswers(fx, o.work, p.check); err != nil {
		return nil, err
	}
	if w.deltaRate > 0 {
		p.deltas, err = newDeltas(o.seed, fx.Cursor, int(w.deltaRate*o.seconds))
	} else {
		p.deltas, err = recrawlDeltas(fx.Sample, fx.Cursor, probeDeltas)
	}
	// The fixture build and the oracle leave a large dead heap; collect it
	// now rather than in the generator during the measured phases.
	debug.FreeOSMemory()
	return p, err
}

// simArgs is the marketsim command line for w on dataDir.
func simArgs(o options, fx *fixture, dataDir string) []string {
	args := []string{o.sim, "-apps", "20", "-developers", "8", "-port", "0",
		"-analysis", "-data-dir", dataDir, "-fsync", o.workload.fsync,
		"-snapshot-every", fmt.Sprint(o.workload.snapshotEvery)}
	if o.workload.paged {
		args = append(args, "-page-budget", fmt.Sprint(fx.ColBytes/4))
	}
	return args
}

// startTimed copies the fixture to a fresh data dir, starts argv on it and
// returns the server once its first scan has answered, with the elapsed
// set-up time.
func startTimed(fx *fixture, dataDir string, argv []string) (*server, time.Duration, error) {
	if err := copyDir(fx.Dir, dataDir); err != nil {
		return nil, 0, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	start := time.Now()
	s, err := spawn(argv, 60*time.Second)
	if err != nil {
		return nil, 0, err
	}
	if err := firstScan(client, s.base, 60*time.Second); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// measured is what one pass of a workload against a server observed.
type measured struct {
	nominal, high []sample
	acks          []ack
	before, after map[string]float64
	cursor        error // nil when the cursor matched the last ack
	correct       bool
	served        []answer
	cpu           time.Duration // server CPU time over the measured phases
}

// drive checks the sample answers, warms the server up, then runs the
// workload's measured phases.
func drive(o options, p *plan, s *server) (*measured, error) {
	w := o.workload
	base := s.base
	client := newClient(w.readConns)
	defer client.CloseIdleConnections()
	m := &measured{}
	var err error
	if m.served, err = served(client, base, p.check); err != nil {
		return nil, err
	}
	m.correct = mismatches(p.check, m.served, p.want, "oracle check") == 0
	openLoop(client, base, p.warm, w.nominalRate, w.readConns)
	if m.before, err = scrapeMetrics(client, base); err != nil {
		return nil, err
	}
	cpu0, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	ingestClient := newClient(1)
	defer ingestClient.CloseIdleConnections()
	var acks chan []ack
	if w.deltaRate > 0 {
		acks = make(chan []ack, 1)
		go func() { acks <- produce(ingestClient, base, p.deltas, w.deltaRate) }()
	}
	steal0 := cpuTicks()
	m.nominal = openLoop(client, base, p.nominal, w.nominalRate, w.readConns)
	summarize("nominal", m.nominal)
	m.high = openLoop(client, base, p.high, w.highRate, w.readConns)
	summarize("high", m.high)
	if steal := stealShare(steal0, cpuTicks()); steal > 0.05 {
		// Another tenant of the host took CPU from this machine while it
		// was measured; these figures are not comparable with quiet runs.
		fmt.Fprintf(os.Stderr, "e2ebench: warning: the host stole %.0f%% of CPU time during the reads\n", 100*steal)
	}
	if acks != nil {
		m.acks = <-acks
	} else {
		// The probe's connection replaces the read ones.
		client.CloseIdleConnections()
		m.acks = produce(ingestClient, base, p.deltas, 0)
	}
	var al []float64
	for _, a := range m.acks {
		al = append(al, ms(a.lat))
	}
	cpu1, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	fmt.Fprintf(os.Stderr, "ingest: %d acks p50 %.2f p80 %.2f max %.2f ms\n", len(al), quantile(al, .5), quantile(al, .8), quantile(al, 1))
	if m.after, err = scrapeMetrics(client, base); err != nil {
		return nil, err
	}
	m.cursor = checkCursor(ingestClient, base, m.acks)
	return m, nil
}

// summarize prints one phase's latency and lag to stderr.
func summarize(phase string, ss []sample) {
	var lat, late []float64
	hits := 0
	for _, s := range ss {
		lat = append(lat, ms(s.lat))
		late = append(late, ms(s.late))
		if s.hit {
			hits++
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d reads p50 %.2f p99 %.2f max %.2f ms, late p99 %.2f max %.2f ms, hits %d\n",
		phase, len(ss), quantile(lat, .5), quantile(lat, .99), quantile(lat, 1), quantile(late, .99), quantile(late, 1), hits)
}

// checkCursor verifies the server's cursor and listing count are exactly
// what the last acknowledgement reported.
func checkCursor(client *http.Client, base string, acks []ack) error {
	if len(acks) == 0 {
		return errors.New("no delta acknowledged")
	}
	last := acks[len(acks)-1].res
	st, err := cursorState(client, base)
	if err != nil {
		return err
	}
	if st.Cursor != last.Cursor || st.Listings != last.Listings {
		return fmt.Errorf("server at cursor %d with %d listings, last ack said cursor %d with %d",
			st.Cursor, st.Listings, last.Cursor, last.Listings)
	}
	return nil
}

func runUntraced(o options) (*result, error) {
	p, err := makePlan(o)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.work, "run", "data")
	defer os.RemoveAll(filepath.Join(o.work, "run"))
	var setups []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.kill()
		}
		var d time.Duration
		if s, d, err = startTimed(p.fx, dataDir, simArgs(o, p.fx, dataDir)); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.kill()
	m, err := drive(o, p, s)
	if err != nil {
		return nil, err
	}
	hwm, err := s.vmHWM()
	if err != nil {
		return nil, err
	}
	dataBytes, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	if err := validate(o, m); err != nil {
		return nil, err
	}
	res := tally(m)
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("cpu_ms_per_req", ms(m.cpu)/float64(res.Attempted), "ms")
	res.Metrics.set("rss_peak_mb", float64(hwm)/(1<<20), "MiB")
	res.Metrics.set("data_dir_mb", float64(dataBytes)/(1<<20), "MiB")
	return res, nil
}

// tally counts one pass's measured requests and whether its answers,
// cursor included, were right.
func tally(m *measured) *result {
	res := &result{Correct: m.correct && m.cursor == nil, Metrics: metrics{}}
	for _, s := range m.nominal {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	for _, s := range m.high {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	for _, a := range m.acks {
		res.Attempted++
		if !a.ok {
			res.Failed++
		}
	}
	return res
}

// latencies are one pass's client-side percentiles: plain nearest-rank
// percentiles over every sample of a phase, each read timed from its
// scheduled send.
func latencies(m *measured) metrics {
	lat := func(ss []sample) []float64 {
		out := make([]float64, 0, len(ss))
		for _, s := range ss {
			out = append(out, ms(s.lat))
		}
		return out
	}
	nom, high := lat(m.nominal), lat(m.high)
	var acks []float64
	for _, a := range m.acks {
		acks = append(acks, ms(a.lat))
	}
	out := metrics{}
	out.set("loadgen.read_p50_ms", quantile(nom, 0.5), "ms")
	out.set("loadgen.read_p99_ms", quantile(nom, 0.99), "ms")
	out.set("loadgen.read_high_p99_ms", quantile(high, 0.99), "ms")
	out.set("loadgen.ack_p50_ms", quantile(acks, 0.5), "ms")
	out.set("loadgen.ack_p80_ms", quantile(acks, 0.8), "ms")
	return out
}

// validate rejects a pass that did not exercise what its workload claims,
// or whose generator fell behind its own schedule.
func validate(o options, m *measured) error {
	w := o.workload
	if m.cursor != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: cursor check:", m.cursor)
	}
	var late []float64
	hits, reads := 0, 0
	for _, s := range append(append([]sample(nil), m.nominal...), m.high...) {
		late = append(late, ms(s.late))
		reads++
		if s.hit {
			hits++
		}
	}
	if l := quantile(late, 0.99); l > maxLateMs {
		return fmt.Errorf("generator fell behind its schedule: late p99 %.2f ms > %.1f ms", l, maxLateMs)
	}
	hr := ratio(float64(hits), float64(reads))
	if hr < w.minHit || hr > w.maxHit {
		return fmt.Errorf("%s: cache hit ratio %.3f outside [%.2f, %.2f]", w.name, hr, w.minHit, w.maxHit)
	}
	delta := func(k string) float64 { return m.after[k] - m.before[k] }
	if w.snapshotEvery > 0 {
		if n := delta("durable_last_snapshot_generation") / float64(w.snapshotEvery); n < 3 {
			return fmt.Errorf("%s: %.0f snapshots written, want at least 3", w.name, n)
		}
	}
	if w.paged {
		if delta("paged_fetches") <= 0 || delta("paged_evictions") <= 0 || m.after["paged_quarantines"] != 0 {
			return fmt.Errorf("paged: fetches +%.0f, evictions +%.0f, quarantines %.0f: the budget was not exercised cleanly",
				delta("paged_fetches"), delta("paged_evictions"), m.after["paged_quarantines"])
		}
	}
	return nil
}
