package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"marketscope/internal/ingest"
)

// newClient returns an HTTP client holding at most conns connections. It
// accepts gzip like any browser-grade client, so the server's compression
// stays on the measured path.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

// sample is the outcome of one read.
type sample struct {
	// lat runs from the request's scheduled send time to its last response
	// byte, so it includes any wait for a free connection.
	lat time.Duration
	// late is how long the generator itself took to send once the request
	// was due and a connection was free: its own lag, not the server's.
	late  time.Duration
	ok    bool
	hit   bool
	bytes int64
}

// openLoop sends reqs at a fixed arrival rate over conns connections and
// returns one sample per request, in schedule order. A request due while
// every connection is busy waits for the first free one; its latency still
// counts from when it was due, so a stall shows in every request behind it.
func openLoop(client *http.Client, base string, reqs []request, rate float64, conns int) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				s := send(client, base, reqs[i])
				free = time.Now()
				s.lat = free.Sub(due)
				s.late = sent.Sub(ready)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

func send(client *http.Client, base string, r request) sample {
	resp, err := client.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return sample{}
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return sample{
		ok:    err == nil && resp.StatusCode == http.StatusOK,
		hit:   resp.Header.Get("X-Cache") == "HIT",
		bytes: n,
	}
}

// ack is the outcome of one ingest POST.
type ack struct {
	lat time.Duration // POST sent to acknowledgement read
	ok  bool
	res ingest.Result
}

// produce POSTs the encoded deltas in order, one every 1/rate seconds (or
// back to back when rate is 0). The producer is sequential, as the cursor
// discipline requires, so a slow ack delays the deltas behind it.
func produce(client *http.Client, base string, deltas [][]byte, rate float64) []ack {
	out := make([]ack, len(deltas))
	start := time.Now()
	for i, body := range deltas {
		if rate > 0 {
			if d := time.Until(start.Add(time.Duration(float64(i) / rate * float64(time.Second)))); d > 0 {
				time.Sleep(d)
			}
		}
		sent := time.Now()
		out[i] = post(client, base, body)
		out[i].lat = time.Since(sent)
		if !out[i].ok {
			// A refused delta leaves the cursor behind; every later one
			// would be a gap.
			return out[:i+1]
		}
	}
	return out
}

func post(client *http.Client, base string, body []byte) ack {
	resp, err := client.Post(base+ingest.IngestPath, "application/json", bytes.NewReader(body))
	if err != nil {
		return ack{}
	}
	defer resp.Body.Close()
	var a ack
	a.ok = resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&a.res) == nil && a.res.Applied
	_, _ = io.Copy(io.Discard, resp.Body)
	return a
}

// cursorState reads the ingest cursor and listing count.
func cursorState(client *http.Client, base string) (ingest.CursorState, error) {
	var st ingest.CursorState
	resp, err := client.Get(base + ingest.IngestPath)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("cursor probe: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
