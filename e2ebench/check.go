package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"marketscope/internal/durable"
	"marketscope/internal/query"
)

// answer is the comparable part of a scan or aggregate response: everything
// but the wall-clock query time and the planner's Explain, which the oracle
// path does not produce.
type answer struct {
	Fields, Rows           json.RawMessage
	TotalMatched, Returned int
}

func (a answer) equal(b answer) bool {
	return bytes.Equal(a.Fields, b.Fields) && bytes.Equal(a.Rows, b.Rows) &&
		a.TotalMatched == b.TotalMatched && a.Returned == b.Returned
}

func answerOf(res *query.Result) (answer, error) {
	f, err := json.Marshal(res.Fields)
	if err != nil {
		return answer{}, err
	}
	r, err := json.Marshal(res.Rows)
	if err != nil {
		return answer{}, err
	}
	return answer{Fields: f, Rows: r, TotalMatched: res.Meta.TotalMatched, Returned: res.Meta.Returned}, nil
}

// oracleAnswers builds the fixture's epoch in process — a materialized
// durable recovery of a private copy — and answers reqs on the engine's
// row-at-a-time reference paths (ScanOracle, AggregateOracle).
func oracleAnswers(fx *fixture, work string, reqs []request) ([]answer, error) {
	dir := filepath.Join(work, "oracle")
	if err := copyDir(fx.Dir, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncOff, Ingest: ingestOptions(fx.CrawlTime)})
	if err != nil {
		return nil, fmt.Errorf("oracle open: %w", err)
	}
	defer st.Close()
	src := st.Dataset().QuerySource()
	scans, ok1 := src.(query.OracleSource)
	aggs, ok2 := src.(query.AggregateOracleSource)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("dataset source %T has no oracle paths", src)
	}
	out := make([]answer, len(reqs))
	for i, r := range reqs {
		var res *query.Result
		if r.scan != nil {
			res, err = scans.ScanOracle(*r.scan)
		} else {
			res, err = aggs.AggregateOracle(*r.agg)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", r.body, err)
		}
		if out[i], err = answerOf(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// served fetches reqs' answers from a live server.
func served(client *http.Client, base string, reqs []request) ([]answer, error) {
	out := make([]answer, len(reqs))
	for i, r := range reqs {
		resp, err := client.Post(base+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, body)
		}
		var res struct {
			Fields json.RawMessage `json:"fields"`
			Rows   json.RawMessage `json:"rows"`
			Meta   struct {
				TotalMatched int `json:"total_matched"`
				Returned     int `json:"returned"`
			} `json:"meta"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("decode %s answer: %w", r.path, err)
		}
		out[i] = answer{res.Fields, res.Rows, res.Meta.TotalMatched, res.Meta.Returned}
	}
	return out, nil
}

// mismatches counts positions where got and want differ, printing the first.
func mismatches(reqs []request, got, want []answer, what string) int {
	n := 0
	for i := range want {
		if got[i].equal(want[i]) {
			continue
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %s %s answered differently:\n got  %.300s\n want %.300s\n",
				what, reqs[i].path, reqs[i].body, got[i].Rows, want[i].Rows)
		}
		n++
	}
	return n
}

// distinct returns up to n requests with pairwise different bodies.
func distinct(reqs []request, n int) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if len(out) == n {
			break
		}
		if !seen[string(r.body)] {
			seen[string(r.body)] = true
			out = append(out, r)
		}
	}
	return out
}
