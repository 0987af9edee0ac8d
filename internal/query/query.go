// Package query is a GraphQL-style scan engine over the enriched crawl
// dataset: the caller specifies exactly which fields to return, which filters
// to apply, how to sort and how many rows to keep, and the engine executes
// the scan and returns structured rows plus execution metadata.
//
// The engine is deliberately a dumb pipe: it knows nothing about the paper's
// tables, market semantics or strategy — consumers (the fixed analyses in
// internal/analysis, the /api/scan HTTP endpoint in internal/market, the
// scan command) bring that context. Fields are contributed by a caller-built
// Registry of typed extractors, so the engine itself has no dependency on
// the dataset representation; analysis.Dataset registers ~40 fields across
// the metadata, apk and enrichment categories.
//
// A query is a single JSON object:
//
//	{
//	  "fields":  ["package", "market", "av_positives"],
//	  "filters": [{"field": "av_positives", "op": ">=", "value": 10},
//	              {"field": "market_chinese", "op": "==", "value": true}],
//	  "sort":    [{"field": "av_positives", "desc": true},
//	              {"field": "package"}],
//	  "limit":   25
//	}
//
// Null semantics follow SQL: a comparison against a null (missing) value
// never matches, null-ness is tested explicitly with the is_null operator,
// and nulls order after every non-null value under both sort directions.
//
// # Execution and storage
//
// Execution is columnar: fields materialize lazily into typed column slices
// with null bitmaps, hot filter columns (a Registry.MarkIndexable hint) get
// secondary indexes, and a planner turns each filter into either an index
// lookup or a residual predicate over the surviving candidates. Storage is
// compressed where it pays, with a bail-out to the plain layout everywhere
// it would not: low-cardinality string columns (a Registry.MarkDictionary
// hint) re-encode as sorted dictionaries plus per-row codes, their posting
// lists become roaring-style compressed bitmaps (array or dense containers
// per 65536-row chunk), every column splits into fixed-size segments with
// per-segment min/max zone maps that let full scans skip segments a filter
// provably cannot match, and all-dictionary group-bys pack their keys into
// single machine words.
//
// # Determinism contract
//
// Every execution path — planned or oracle, dictionary or plain layout,
// serial or parallel — returns byte-identical results for the same query
// over the same engine: same rows, same order, same metadata counts, float
// aggregates folded in the same dataset order so even their bit patterns
// agree. Scan has ScanOracle and Aggregate has AggregateOracle, the kept
// row-at-a-time reference implementations the test suite holds the planner
// to. Engines are immutable once built and safe for concurrent use.
package query

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Kind is the value type of a field. Every extracted value normalizes to the
// Go representation listed next to its kind.
type Kind string

// Field kinds.
const (
	KindString Kind = "string" // string
	KindInt    Kind = "int"    // int64
	KindFloat  Kind = "float"  // float64
	KindBool   Kind = "bool"   // bool
	KindTime   Kind = "time"   // time.Time, emitted as RFC 3339
)

// FieldInfo describes one registered field for introspection (the
// /api/scan/fields endpoint and the scan command's -fields listing).
type FieldInfo struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Kind     Kind   `json:"kind"`
	Doc      string `json:"doc,omitempty"`
	// Nullable marks fields that can be missing on some rows (for example
	// every apk-category field is null on listings whose APK failed to
	// parse).
	Nullable bool `json:"nullable,omitempty"`
	// Indexable marks fields the planner may answer through a secondary
	// index (code bitmaps for == / in on dictionary-encoded strings, a
	// sorted index for ranges and every other == / in) instead of scanning
	// every row.
	Indexable bool `json:"indexable,omitempty"`
	// Dictionary marks string fields hinted for dictionary encoding (int
	// codes into a sorted dictionary, bitmap posting lists when also
	// Indexable). A hint, not a guarantee: high-cardinality columns fall
	// back to the plain layout with identical results.
	Dictionary bool `json:"dictionary,omitempty"`
}

// Op is a filter operator.
type Op string

// Filter operators. Ordering operators apply to int, float, string and time
// fields; contains applies to string fields only; in accepts a list of
// values of the field's kind; is_null applies to every field.
const (
	OpEq       Op = "=="
	OpNe       Op = "!="
	OpLt       Op = "<"
	OpLe       Op = "<="
	OpGt       Op = ">"
	OpGe       Op = ">="
	OpIn       Op = "in"
	OpContains Op = "contains"
	OpIsNull   Op = "is_null"
)

// Filter is one predicate; a query's filters are conjunctive (AND).
type Filter struct {
	Field string `json:"field"`
	Op    Op     `json:"op"`
	// Value is the comparison operand: a scalar for the ordering operators,
	// a list for in, a bool for is_null (omitted means true: "is null").
	Value any `json:"value,omitempty"`
}

// SortKey orders results by one field; earlier keys dominate. Rows with a
// null key value order after all non-null rows regardless of direction, and
// ties preserve dataset order (the sort is stable).
type SortKey struct {
	Field string `json:"field"`
	Desc  bool   `json:"desc,omitempty"`
}

// Query is one scan request.
type Query struct {
	// Fields lists the columns to return, in order. Empty means every
	// registered field in registration order.
	Fields  []string  `json:"fields"`
	Filters []Filter  `json:"filters,omitempty"`
	Sort    []SortKey `json:"sort,omitempty"`
	// Limit caps the returned rows; 0 means no cap. TotalMatched in the
	// result meta always counts every match regardless of the limit.
	Limit int `json:"limit,omitempty"`
}

// Explain describes how the planner executed one scan; it is attached to
// Meta on the planned (default) execution path and absent on the oracle
// path.
type Explain struct {
	// IndexUsed names the secondary indexes the planner consulted, e.g.
	// "bitmap(market)" (dictionary-encoded equality), "sorted(market_chinese)"
	// or "sorted(av_positives)+sorted(flagged)". Empty when the scan fell
	// back to a full column scan.
	IndexUsed string `json:"index_used,omitempty"`
	// DatasetRows is the total dataset size — what Meta.Scanned always
	// reported before the planner existed — so clients can still compute
	// selectivity when indexes prune the scan.
	DatasetRows int `json:"dataset_rows"`
	// Candidates is the number of rows entering the scan stage: the size of
	// the index posting-list intersection, or DatasetRows when no index
	// applied.
	Candidates int `json:"candidates"`
	// ResidualScanned is the number of rows that had at least one residual
	// (non-indexed) predicate evaluated against them: 0 when the indexes
	// answered the filters outright, Candidates otherwise — shrunk further
	// by whole segments the zone maps skipped on a full scan (see
	// SegmentRowsScanned).
	ResidualScanned int `json:"residual_scanned"`
	// SegmentsSkipped / SegmentsScanned count the fixed-size column segments
	// a full scan skipped via zone maps versus actually walked. Both are
	// zero when zone pruning did not run: when posting lists already
	// narrowed the scan to candidates, or when no filter had a usable zone
	// rule.
	SegmentsSkipped int `json:"segments_skipped,omitempty"`
	SegmentsScanned int `json:"segments_scanned,omitempty"`
	// SegmentRowsSkipped / SegmentRowsScanned are the same tallies in rows.
	// When zone pruning ran, skipped + scanned rows always sum to
	// DatasetRows: every row is either provably excluded by its segment's
	// zone map or evaluated.
	SegmentRowsSkipped int `json:"segment_rows_skipped,omitempty"`
	SegmentRowsScanned int `json:"segment_rows_scanned,omitempty"`
}

// Meta is the execution metadata attached to every result.
type Meta struct {
	// Scanned is the number of rows the engine actually evaluated
	// predicates against. On a full scan with filters this is the dataset
	// size (the pre-planner behaviour); when the planner answers filters
	// from secondary indexes it shrinks to the rows the residual predicates
	// touched, and a query whose filters were answered entirely by indexes
	// (or that has no filters) reports 0. The old meaning of this field —
	// the full dataset size — is preserved in Explain.DatasetRows, and the
	// row count that entered the scan stage in Explain.Candidates.
	Scanned int `json:"scanned"`
	// TotalMatched counts every row passing the filters, before the limit.
	TotalMatched int `json:"total_matched"`
	// Returned is len(Rows) after sorting and limiting.
	Returned int `json:"returned"`
	// QueryTimeMicros is the wall-clock execution time in microseconds.
	QueryTimeMicros int64 `json:"query_time_us"`
	// Explain reports the planner's decisions (index choice, candidate and
	// residual row counts); nil on the oracle execution path.
	Explain *Explain `json:"explain,omitempty"`
}

// Result is the outcome of one scan: the requested columns, the row values
// (one slice per row, aligned with Fields; nil marks a null) and the meta.
type Result struct {
	Fields []FieldInfo `json:"fields"`
	Rows   [][]any     `json:"rows"`
	Meta   Meta        `json:"meta"`
}

// Errors returned by ParseQuery and Scan.
var (
	ErrUnknownField = errors.New("query: unknown field")
	ErrBadOp        = errors.New("query: operator not valid for field kind")
	ErrBadValue     = errors.New("query: filter value not valid for field kind")
	ErrBadLimit     = errors.New("query: negative limit")
	ErrEmptyQuery   = errors.New("query: empty query body")
)

// maxQueryBytes bounds the accepted query document; a scan query is a small
// hand- or machine-written object, never megabytes.
const maxQueryBytes = 1 << 20

// ParseQuery decodes a JSON query document, rejecting unknown keys so typos
// ("filter" for "filters") fail loudly instead of silently matching
// everything.
func ParseQuery(r io.Reader) (Query, error) {
	var q Query
	dec := json.NewDecoder(io.LimitReader(r, maxQueryBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		if errors.Is(err, io.EOF) {
			return q, ErrEmptyQuery
		}
		return q, fmt.Errorf("query: parse: %w", err)
	}
	if dec.More() {
		return q, errors.New("query: parse: trailing data after the query object")
	}
	if q.Limit < 0 {
		return q, fmt.Errorf("%w: %d", ErrBadLimit, q.Limit)
	}
	return q, nil
}

// Source is the non-generic face of an engine: everything the HTTP endpoint
// and the scan command need, independent of the row type. *Engine[T]
// implements it.
type Source interface {
	// Fields lists the registered fields in registration order.
	Fields() []FieldInfo
	// Scan executes one query. It is safe for concurrent use.
	Scan(q Query) (*Result, error)
}

// ContextSource is implemented by sources whose scans honor context
// cancellation: a scan observing a cancelled or expired context stops at the
// next chunk boundary and returns the context's error instead of burning CPU
// to completion. With a context that never cancels, ScanContext is
// bit-identical to Scan (which is ScanContext over context.Background()).
// *Engine[T] implements it; the HTTP endpoints use it to abandon work for
// timed-out or disconnected clients.
type ContextSource interface {
	Source
	// ScanContext executes one query, stopping early (with ctx.Err()) when
	// the context is cancelled. It is safe for concurrent use.
	ScanContext(ctx context.Context, q Query) (*Result, error)
}

// OracleSource is implemented by sources that retain the pre-planner
// row-at-a-time reference scan alongside the planned path. The equivalence
// tests and benchmarks compare Scan against ScanOracle; production callers
// should not use it. *Engine[T] implements it.
type OracleSource interface {
	Source
	// ScanOracle executes one query on the reference path: boxed per-row
	// extraction, full filter evaluation on every row and a full stable
	// sort. Rows and TotalMatched are byte-identical to Scan's.
	ScanOracle(q Query) (*Result, error)
}

// emitValue converts a normalized value into its JSON-facing representation:
// time.Time becomes an RFC 3339 string, everything else passes through.
func emitValue(v any) any {
	if t, ok := v.(time.Time); ok {
		return t.Format(time.RFC3339)
	}
	return v
}
