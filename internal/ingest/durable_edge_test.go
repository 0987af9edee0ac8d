package ingest_test

// Cursor-discipline edges when the ingest handler fronts a durable store:
// batches replayed by a reconnecting producer after a server restart must be
// acked no-ops (never double-applied, not even via WAL replay), and a gap
// after restart must 409 with the cursor the producer should resume from.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"marketscope/internal/durable"
	"marketscope/internal/durable/errfs"
	"marketscope/internal/ingest"
)

func postDelta(t *testing.T, h http.HandlerFunc, d ingest.Delta) (int, ingest.Result, uint64) {
	t.Helper()
	body, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, ingest.IngestPath, bytes.NewReader(body)))
	if rec.Code == http.StatusOK {
		var res ingest.Result
		if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
			t.Fatalf("decode result: %v", err)
		}
		return rec.Code, res, res.Cursor
	}
	var envelope struct {
		Error  string `json:"error"`
		Cursor uint64 `json:"cursor"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return rec.Code, ingest.Result{}, envelope.Cursor
}

func TestDurableCursorEdgesAcrossRestart(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	if len(records) < 30 {
		t.Fatalf("corpus too small: %d records", len(records))
	}
	var deltas []ingest.Delta
	for seq := 0; seq < 3; seq++ {
		d := ingest.Delta{Seq: uint64(seq)}
		for _, rec := range records[seq*10 : (seq+1)*10] {
			d.Listings = append(d.Listings, listingFor(snap, rec))
		}
		deltas = append(deltas, d)
	}

	fs := errfs.New()
	open := func() *durable.Store {
		s, err := durable.Open(durable.Options{
			FS: fs, Dir: "data",
			Ingest: ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime},
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}

	s := open()
	h := ingest.Handler(s)
	for _, d := range deltas[:2] {
		if code, res, _ := postDelta(t, h, d); code != http.StatusOK || !res.Applied {
			t.Fatalf("seq %d: code %d res %+v", d.Seq, code, res)
		}
	}
	listings := s.Dataset().NumListings()
	s.Close()

	// Restart. The producer, unaware, replays its last acked batch: 200,
	// applied=false, and the dataset must not grow — the batch came back once
	// through WAL replay and once over HTTP, and neither lands twice.
	s = open()
	h = ingest.Handler(s)
	if s.Cursor() != 2 {
		t.Fatalf("recovered cursor %d, want 2", s.Cursor())
	}
	if got := s.Dataset().NumListings(); got != listings {
		t.Fatalf("WAL replay changed listings: %d != %d", got, listings)
	}
	code, res, cursor := postDelta(t, h, deltas[1])
	if code != http.StatusOK || res.Applied || cursor != 2 {
		t.Fatalf("replay after restart: code %d res %+v", code, res)
	}
	if got := s.Dataset().NumListings(); got != listings {
		t.Fatalf("replayed batch double-applied: %d != %d", got, listings)
	}

	// A producer that skipped ahead gets 409 plus the cursor to resume from.
	code, _, cursor = postDelta(t, h, ingest.Delta{Seq: 7})
	if code != http.StatusConflict || cursor != 2 {
		t.Fatalf("gap after restart: code %d cursor %d", code, cursor)
	}

	// Resuming at the advertised cursor works.
	code, res, _ = postDelta(t, h, deltas[2])
	if code != http.StatusOK || !res.Applied || res.Cursor != 3 {
		t.Fatalf("resume: code %d res %+v", code, res)
	}
	if got := s.Dataset().NumListings(); got <= listings {
		t.Fatalf("resumed batch did not land: %d", got)
	}
	s.Close()

	// One more restart: the full stream recovered, still exactly once.
	s = open()
	defer s.Close()
	want := 0
	seen := map[string]bool{}
	for _, d := range deltas {
		for _, l := range d.Listings {
			k := l.Record.Market + "\x00" + l.Record.Package
			if !seen[k] {
				seen[k] = true
				want++
			}
		}
	}
	if got := s.Dataset().NumListings(); got != want || s.Cursor() != 3 {
		t.Fatalf("final state: %d listings cursor %d, want %d/3", got, s.Cursor(), want)
	}
}

// TestDurableCommitFailureIs503: a WAL append that fails behind the handler
// is a server fault. The POST answers 503 with the cursor unchanged, and the
// wedged store keeps answering 503 to the same batch, never 400, so a
// producer retries a valid delta instead of dropping it. A malformed delta
// is still the producer's fault.
func TestDurableCommitFailureIs503(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	var deltas []ingest.Delta
	for seq := 0; seq < 2; seq++ {
		d := ingest.Delta{Seq: uint64(seq)}
		for _, rec := range records[seq*10 : (seq+1)*10] {
			d.Listings = append(d.Listings, listingFor(snap, rec))
		}
		deltas = append(deltas, d)
	}

	inj := errfs.NewInjector(errfs.New())
	s, err := durable.Open(durable.Options{
		FS: inj, Dir: "data",
		Ingest: ingest.Options{Enrich: enrichOpts(), CrawlTime: snap.CrawlTime},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	h := ingest.Handler(s)
	if code, res, _ := postDelta(t, h, deltas[0]); code != http.StatusOK || !res.Applied {
		t.Fatalf("seq 0: code %d res %+v", code, res)
	}
	listings := s.Dataset().NumListings()

	// Fail the next filesystem operation: the WAL append of seq 1.
	inj.Arm(len(inj.Log()), errfs.ModeErr, nil)
	code, _, cursor := postDelta(t, h, deltas[1])
	if code != http.StatusServiceUnavailable || cursor != 1 {
		t.Fatalf("failed WAL append: code %d cursor %d, want 503 at cursor 1", code, cursor)
	}
	if inj.Hits() != 1 {
		t.Fatalf("fault hit %d operations, want 1", inj.Hits())
	}
	if s.Cursor() != 1 || s.Dataset().NumListings() != listings {
		t.Fatalf("failed commit changed state: cursor %d, %d listings", s.Cursor(), s.Dataset().NumListings())
	}

	// The fault is gone but the log is wedged: the same batch is still a
	// server fault.
	code, _, cursor = postDelta(t, h, deltas[1])
	if code != http.StatusServiceUnavailable || cursor != 1 {
		t.Fatalf("re-POST to wedged store: code %d cursor %d, want 503 at cursor 1", code, cursor)
	}

	bad := ingest.Delta{Seq: 1, Listings: []ingest.Listing{{}}}
	if code, _, _ := postDelta(t, h, bad); code != http.StatusBadRequest {
		t.Fatalf("invalid listing: code %d, want 400", code)
	}
}
