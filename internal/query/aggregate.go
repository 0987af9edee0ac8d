package query

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Grouped aggregation: the request model and the row-at-a-time reference
// executor. An Aggregate groups the rows passing its filters by any set of
// registered fields and computes one cell per (group, aggregate spec) —
// counts, sums, means, extrema, shares, distinct counts and per-group top-K
// value rankings. The result reuses the scan Result shape (the group-by
// fields become the leading output columns, one column per aggregate
// follows), so the HTTP endpoint, the CLI table renderer and JSON clients
// consume aggregations exactly like scans.
//
// Execution mirrors the scan contract: Engine.Aggregate runs the planned
// columnar path (groupby.go) — candidate pruning through the secondary
// indexes, parallel per-chunk grouping merged deterministically in dataset
// order, typed per-group aggregation — while AggregateOracle keeps the naive
// path (boxed extraction, one pass per row) verbatim. Both return
// byte-identical results for every request, the same accelerate-and-prove
// contract Scan/ScanOracle established.

// AggOp is a grouped-aggregation operator.
type AggOp string

// Aggregation operators. count and share take an optional / no field; every
// other operator aggregates one named field. Null field values never
// contribute (SQL semantics): count(field) counts non-null rows, sum/mean
// skip nulls, min/max ignore them, distinct and topk never see them.
const (
	// AggCount counts the group's rows; with a field, only rows where the
	// field is non-null.
	AggCount AggOp = "count"
	// AggSum sums an int, float or bool field (bools count true as 1, so a
	// bool sum is a conditional count).
	AggSum AggOp = "sum"
	// AggMean is sum divided by the number of non-null contributing rows;
	// null when no row contributes.
	AggMean AggOp = "mean"
	// AggMin / AggMax return the smallest / largest non-null value under the
	// field kind's ordering; null when no row contributes.
	AggMin AggOp = "min"
	AggMax AggOp = "max"
	// AggShare is the group's row count divided by the total rows matched by
	// the request filters (across all groups), a float in [0, 1].
	AggShare AggOp = "share"
	// AggDistinct counts the distinct non-null values of a field.
	AggDistinct AggOp = "distinct"
	// AggTopK renders the K most frequent non-null values of a field as
	// "value:count, ..." ordered by count desc, value asc; null when the
	// group has no non-null values. K defaults to 10.
	AggTopK AggOp = "topk"
)

// AggSpec is one requested aggregate.
type AggSpec struct {
	Op    AggOp  `json:"op"`
	Field string `json:"field,omitempty"`
	// Where restricts this one aggregate to the group rows passing the given
	// filters (SQL's FILTER clause): the request-level Filters select the
	// rows and form the groups, Where only gates which of a group's rows the
	// cell counts. This is how one query computes e.g. a parsed-app count
	// next to a flagged-at-threshold count per market.
	Where []Filter `json:"where,omitempty"`
	// K bounds the topk ranking (default 10); ignored by other operators.
	K int `json:"k,omitempty"`
	// As names the output column; defaults to "op" / "op(field)". Required
	// when two aggregates would otherwise collide.
	As string `json:"as,omitempty"`
}

// Aggregate is one grouped-aggregation request.
type Aggregate struct {
	// GroupBy lists the grouping fields, in output order. Groups appear in
	// first-occurrence dataset order (before Sort); a null field value forms
	// its own group. Empty means one global group — emitted even when no row
	// matches, so global aggregates always return exactly one row.
	GroupBy []string `json:"group_by,omitempty"`
	// Aggregates lists the cells to compute per group; at least one.
	Aggregates []AggSpec `json:"aggregates"`
	// Filters select the rows entering the aggregation (same conjunctive
	// model as a scan; the planner prunes candidates through the secondary
	// indexes exactly as Scan does).
	Filters []Filter `json:"filters,omitempty"`
	// Sort orders the output groups by output column names (group-by fields
	// or aggregate names), nulls last; ties keep first-occurrence order.
	Sort []SortKey `json:"sort,omitempty"`
	// Limit caps the returned groups after sorting; 0 means no cap.
	Limit int `json:"limit,omitempty"`
}

// ErrBadAggregate marks an invalid aggregation request.
var ErrBadAggregate = errors.New("query: bad aggregate")

// FieldCategoryAggregate is the Category of computed (non-group) output
// columns in an aggregation result.
const FieldCategoryAggregate = "aggregate"

// ParseAggregate decodes a JSON aggregation document, rejecting unknown keys
// like ParseQuery does.
func ParseAggregate(r io.Reader) (Aggregate, error) {
	var a Aggregate
	dec := json.NewDecoder(io.LimitReader(r, maxQueryBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		if errors.Is(err, io.EOF) {
			return a, ErrEmptyQuery
		}
		return a, fmt.Errorf("query: parse: %w", err)
	}
	if dec.More() {
		return a, errors.New("query: parse: trailing data after the aggregate object")
	}
	if a.Limit < 0 {
		return a, fmt.Errorf("%w: %d", ErrBadLimit, a.Limit)
	}
	return a, nil
}

// AggregateSource is the aggregation face of a source: consumers holding a
// Source (the HTTP endpoint, the CLI, the fixed analyses) type-assert to it.
// *Engine[T] implements it.
type AggregateSource interface {
	Source
	// Aggregate executes one grouped-aggregation request. It is safe for
	// concurrent use.
	Aggregate(a Aggregate) (*Result, error)
}

// ContextAggregateSource is implemented by aggregation sources honoring
// context cancellation, mirroring ContextSource for scans: a cancelled
// context stops the match, group and fold stages at the next chunk boundary
// with ctx.Err(); a context that never cancels is bit-identical to
// Aggregate. *Engine[T] implements it.
type ContextAggregateSource interface {
	AggregateSource
	// AggregateContext executes one grouped-aggregation request, stopping
	// early (with ctx.Err()) when the context is cancelled. It is safe for
	// concurrent use.
	AggregateContext(ctx context.Context, a Aggregate) (*Result, error)
}

// AggregateOracleSource adds the reference executor, for the equivalence
// suite and benchmarks only.
type AggregateOracleSource interface {
	AggregateSource
	// AggregateOracle executes the request on the row-at-a-time reference
	// path. Fields, Rows and TotalMatched are byte-identical to
	// Aggregate's; Meta.Scanned (always the dataset size here, the
	// rows-evaluated count on the planned path), QueryTimeMicros and the
	// absent Explain block differ, mirroring Scan vs ScanOracle.
	AggregateOracle(a Aggregate) (*Result, error)
}

// compiledAgg is one validated aggregate spec: field resolved, where filters
// compiled, output kind decided.
type compiledAgg[T any] struct {
	op    AggOp
	field Field[T] // zero value when ord < 0
	ord   int      // field's registration ordinal; -1 when no field
	where []compiledFilter[T]
	k     int
	kind  Kind // output column kind
}

// preparedAgg is one validated request, shared by both executors.
type preparedAgg[T any] struct {
	groupFields []Field[T]
	groupOrds   []int
	specs       []compiledAgg[T]
	filters     []compiledFilter[T]
	sortKeys    []SortKey
	sortCols    []int  // output column index per sort key
	sortKinds   []Kind // output column kind per sort key
	limit       int
	infos       []FieldInfo
}

func (e *Engine[T]) prepareAggregate(a Aggregate) (*preparedAgg[T], error) {
	if a.Limit < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLimit, a.Limit)
	}
	if len(a.Aggregates) == 0 {
		return nil, fmt.Errorf("%w: at least one aggregate is required", ErrBadAggregate)
	}
	pa := &preparedAgg[T]{limit: a.Limit}

	names := map[string]bool{}
	for _, name := range a.GroupBy {
		f, ok := e.reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q (in group_by)", ErrUnknownField, name)
		}
		if names[name] {
			return nil, fmt.Errorf("%w: duplicate group_by field %q", ErrBadAggregate, name)
		}
		names[name] = true
		pa.groupFields = append(pa.groupFields, f)
		pa.groupOrds = append(pa.groupOrds, e.ordinals[name])
		pa.infos = append(pa.infos, f.info())
	}

	for _, spec := range a.Aggregates {
		ca := compiledAgg[T]{op: spec.Op, ord: -1, k: spec.K}
		needsField := false
		switch spec.Op {
		case AggCount:
			// Field optional: counts non-null rows of it when given.
		case AggShare:
			if spec.Field != "" {
				return nil, fmt.Errorf("%w: share takes no field (got %q)", ErrBadAggregate, spec.Field)
			}
		case AggSum, AggMean, AggMin, AggMax, AggDistinct, AggTopK:
			needsField = true
		default:
			return nil, fmt.Errorf("%w: unknown aggregate op %q", ErrBadAggregate, spec.Op)
		}
		if needsField && spec.Field == "" {
			return nil, fmt.Errorf("%w: %s requires a field", ErrBadAggregate, spec.Op)
		}
		if spec.Field != "" {
			f, ok := e.reg.Lookup(spec.Field)
			if !ok {
				return nil, fmt.Errorf("%w: %q (in aggregate %s)", ErrUnknownField, spec.Field, spec.Op)
			}
			ca.field = f
			ca.ord = e.ordinals[spec.Field]
		}
		if spec.Op == AggSum || spec.Op == AggMean {
			switch ca.field.Kind {
			case KindInt, KindFloat, KindBool:
			default:
				return nil, fmt.Errorf("%w: %s on %s field %q", ErrBadOp, spec.Op, ca.field.Kind, spec.Field)
			}
		}
		for _, raw := range spec.Where {
			cf, err := compileFilter(e.reg, raw)
			if err != nil {
				return nil, fmt.Errorf("aggregate %s: %w", spec.Op, err)
			}
			ca.where = append(ca.where, cf)
		}
		if ca.op == AggTopK && ca.k <= 0 {
			ca.k = 10
		}
		ca.kind = aggOutputKind(ca)
		name := spec.As
		if name == "" {
			name = defaultAggName(spec, ca.k)
		}
		if names[name] {
			return nil, fmt.Errorf("%w: duplicate output column %q (name it with \"as\")", ErrBadAggregate, name)
		}
		names[name] = true
		pa.specs = append(pa.specs, ca)
		pa.infos = append(pa.infos, FieldInfo{
			Name: name, Category: FieldCategoryAggregate, Kind: ca.kind,
			Doc: aggDoc(spec), Nullable: aggNullable(ca),
		})
	}

	for _, raw := range a.Filters {
		cf, err := compileFilter(e.reg, raw)
		if err != nil {
			return nil, err
		}
		pa.filters = append(pa.filters, cf)
	}

	for _, key := range a.Sort {
		col := -1
		for i, info := range pa.infos {
			if info.Name == key.Field {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("%w: %q (sort keys name output columns)", ErrUnknownField, key.Field)
		}
		pa.sortKeys = append(pa.sortKeys, key)
		pa.sortCols = append(pa.sortCols, col)
		pa.sortKinds = append(pa.sortKinds, pa.infos[col].Kind)
	}
	return pa, nil
}

// aggOutputKind maps an aggregate to its output column kind.
func aggOutputKind[T any](ca compiledAgg[T]) Kind {
	switch ca.op {
	case AggCount, AggDistinct:
		return KindInt
	case AggMean, AggShare:
		return KindFloat
	case AggSum:
		if ca.field.Kind == KindFloat {
			return KindFloat
		}
		return KindInt
	case AggMin, AggMax:
		return ca.field.Kind
	case AggTopK:
		return KindString
	}
	return KindString
}

// aggNullable reports whether an aggregate can emit a null cell (no
// contributing rows).
func aggNullable[T any](ca compiledAgg[T]) bool {
	switch ca.op {
	case AggCount, AggShare, AggDistinct:
		return false
	}
	return true
}

// defaultAggName derives an output column name from a spec.
func defaultAggName(spec AggSpec, k int) string {
	switch {
	case spec.Op == AggTopK:
		return fmt.Sprintf("topk(%s,%d)", spec.Field, k)
	case spec.Field != "":
		return string(spec.Op) + "(" + spec.Field + ")"
	}
	return string(spec.Op)
}

// aggDoc renders the introspection doc of one aggregate column.
func aggDoc(spec AggSpec) string {
	doc := string(spec.Op)
	if spec.Field != "" {
		doc += " of " + spec.Field
	}
	if len(spec.Where) > 0 {
		doc += " (conditional)"
	}
	return doc
}

// --- group-key encoding -------------------------------------------------
//
// Group membership (and distinct/topk value identity) is decided by an
// order-preserving byte encoding of the normalized value, identical between
// the columnar and the oracle path: a null marker byte, then a typed payload.
// Floats compare by bit pattern, so every NaN payload is its own group —
// grouping needs an equivalence relation and compareValues' "NaN equals
// everything" is not one.

func appendKeyInt(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(v))
}

func appendKeyFloat(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendKeyString(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

func appendKeyBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendKeyTime encodes an instant as Unix seconds and nanoseconds; the UTC
// offset is not part of the key, so one instant is one group whatever its
// spelling.
func appendKeyTime(buf []byte, sec int64, nsec int32) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(sec))
	return binary.BigEndian.AppendUint32(buf, uint32(nsec))
}

// appendKeyValue encodes one boxed normalized value (the oracle side).
func appendKeyValue(buf []byte, kind Kind, v any, null bool) []byte {
	if null {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	switch kind {
	case KindInt:
		return appendKeyInt(buf, v.(int64))
	case KindFloat:
		return appendKeyFloat(buf, v.(float64))
	case KindString:
		return appendKeyString(buf, v.(string))
	case KindBool:
		return appendKeyBool(buf, v.(bool))
	case KindTime:
		t := v.(time.Time)
		return appendKeyTime(buf, t.Unix(), int32(t.Nanosecond()))
	}
	return buf
}

// appendKey encodes the value at row i straight from the typed column (the
// planned side); byte-for-byte identical to appendKeyValue on the extracted
// value.
func (c *column) appendKey(buf []byte, i int) []byte {
	if c.nulls.get(i) {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	switch c.kind {
	case KindInt:
		return appendKeyInt(buf, c.ints[i])
	case KindFloat:
		return appendKeyFloat(buf, c.floats[i])
	case KindString:
		return appendKeyString(buf, c.str(i))
	case KindBool:
		return appendKeyBool(buf, c.bools[i])
	case KindTime:
		return appendKeyTime(buf, c.timeSec[i], c.timeNsec[i])
	}
	return buf
}

// formatScalar renders one non-null normalized value inside a topk cell,
// identically on both paths.
func formatScalar(kind Kind, v any) string {
	switch kind {
	case KindInt:
		return strconv.FormatInt(v.(int64), 10)
	case KindFloat:
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	case KindString:
		return v.(string)
	case KindBool:
		return strconv.FormatBool(v.(bool))
	case KindTime:
		return v.(time.Time).Format(time.RFC3339)
	}
	return fmt.Sprint(v)
}

// Aggregate implements AggregateSource on the planned columnar path
// (groupby.go); datasets beyond int32 row ids keep the reference semantics,
// mirroring Scan.
func (e *Engine[T]) Aggregate(a Aggregate) (*Result, error) {
	return e.AggregateContext(context.Background(), a)
}

// AggregateContext implements ContextAggregateSource: Aggregate with
// cooperative cancellation at the same chunk boundaries ScanContext uses.
func (e *Engine[T]) AggregateContext(ctx context.Context, a Aggregate) (*Result, error) {
	start := time.Now()
	pa, err := e.prepareAggregate(a)
	if err != nil {
		return nil, err
	}
	if len(e.items) > math.MaxInt32 {
		return e.aggregateOracle(pa, start), nil
	}
	if e.pager != nil {
		// Mirror ScanContext: pin the full column set (filters, group-bys,
		// every spec's value and where columns) up front, degrade cleanly if
		// the pages cannot be had.
		release, err := e.pinOrds(ctx, e.aggOrds(pa))
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return e.aggregatePlanned(ctx, pa, start)
}

// AggregateOracle implements AggregateOracleSource: the row-at-a-time
// reference executor — boxed extraction through the same extract() the scan
// oracle uses, one sequential pass to form the groups, per-group sequential
// cell computation in dataset order.
func (e *Engine[T]) AggregateOracle(a Aggregate) (*Result, error) {
	start := time.Now()
	pa, err := e.prepareAggregate(a)
	if err != nil {
		return nil, err
	}
	return e.aggregateOracle(pa, start), nil
}

// oracleGroup is one group on the reference path.
type oracleGroup struct {
	keyCells []any // typed normalized group-key values, nil = null
	rows     []int
}

func (e *Engine[T]) aggregateOracle(pa *preparedAgg[T], start time.Time) *Result {
	matched := e.match(pa.filters)

	var groups []*oracleGroup
	if len(pa.groupFields) == 0 {
		groups = []*oracleGroup{{rows: matched}}
	} else {
		index := map[string]int{}
		var buf []byte
		for _, idx := range matched {
			buf = buf[:0]
			cells := make([]any, len(pa.groupFields))
			for i, f := range pa.groupFields {
				v, null := extract(f, e.items[idx])
				buf = appendKeyValue(buf, f.Kind, v, null)
				if !null {
					cells[i] = v
				}
			}
			gi, ok := index[string(buf)]
			if !ok {
				gi = len(groups)
				index[string(buf)] = gi
				groups = append(groups, &oracleGroup{keyCells: cells})
			}
			groups[gi].rows = append(groups[gi].rows, idx)
		}
	}

	rows := make([][]any, 0, len(groups))
	for _, g := range groups {
		cells := make([]any, 0, len(pa.infos))
		cells = append(cells, g.keyCells...)
		for s := range pa.specs {
			cells = append(cells, e.oracleCell(&pa.specs[s], g.rows, len(matched)))
		}
		rows = append(rows, cells)
	}
	sortAggRows(rows, pa)
	if pa.limit > 0 && len(rows) > pa.limit {
		rows = rows[:pa.limit]
	}
	emitAggRows(rows)

	return &Result{
		Fields: pa.infos,
		Rows:   rows,
		Meta: Meta{
			Scanned:         len(e.items),
			TotalMatched:    len(matched),
			Returned:        len(rows),
			QueryTimeMicros: time.Since(start).Microseconds(),
		},
	}
}

// oracleCell computes one aggregate over a group's rows on the reference
// path: boxed extraction, strictly in dataset order.
func (e *Engine[T]) oracleCell(ca *compiledAgg[T], rows []int, totalMatched int) any {
	pass := func(idx int) bool {
		for w := range ca.where {
			if !ca.where[w].match(e.items[idx]) {
				return false
			}
		}
		return true
	}
	switch ca.op {
	case AggCount:
		n := 0
		for _, idx := range rows {
			if !pass(idx) {
				continue
			}
			if ca.ord >= 0 {
				if _, null := extract(ca.field, e.items[idx]); null {
					continue
				}
			}
			n++
		}
		return int64(n)
	case AggShare:
		n := 0
		for _, idx := range rows {
			if pass(idx) {
				n++
			}
		}
		if totalMatched == 0 {
			return float64(0)
		}
		return float64(n) / float64(totalMatched)
	case AggSum, AggMean:
		var sumInt int64
		var sumFloat float64
		n := 0
		for _, idx := range rows {
			if !pass(idx) {
				continue
			}
			v, null := extract(ca.field, e.items[idx])
			if null {
				continue
			}
			switch ca.field.Kind {
			case KindInt:
				sumInt += v.(int64)
			case KindFloat:
				sumFloat += v.(float64)
			case KindBool:
				if v.(bool) {
					sumInt++
				}
			}
			n++
		}
		if ca.op == AggSum {
			if ca.field.Kind == KindFloat {
				if n == 0 {
					return nil
				}
				return sumFloat
			}
			if n == 0 {
				return nil
			}
			return sumInt
		}
		if n == 0 {
			return nil
		}
		if ca.field.Kind == KindFloat {
			return sumFloat / float64(n)
		}
		return float64(sumInt) / float64(n)
	case AggMin, AggMax:
		var best any
		for _, idx := range rows {
			if !pass(idx) {
				continue
			}
			v, null := extract(ca.field, e.items[idx])
			if null {
				continue
			}
			if best == nil {
				best = v
				continue
			}
			c := compareValues(ca.field.Kind, v, best)
			if (ca.op == AggMin && c < 0) || (ca.op == AggMax && c > 0) {
				best = v
			}
		}
		return best
	case AggDistinct:
		seen := map[string]bool{}
		var buf []byte
		for _, idx := range rows {
			if !pass(idx) {
				continue
			}
			v, null := extract(ca.field, e.items[idx])
			if null {
				continue
			}
			buf = appendKeyValue(buf[:0], ca.field.Kind, v, false)
			if !seen[string(buf)] {
				seen[string(buf)] = true
			}
		}
		return int64(len(seen))
	case AggTopK:
		type entry struct {
			v     any
			first int
			count int
		}
		index := map[string]int{}
		var entries []*entry
		var buf []byte
		for _, idx := range rows {
			if !pass(idx) {
				continue
			}
			v, null := extract(ca.field, e.items[idx])
			if null {
				continue
			}
			buf = appendKeyValue(buf[:0], ca.field.Kind, v, false)
			ei, ok := index[string(buf)]
			if !ok {
				ei = len(entries)
				index[string(buf)] = ei
				entries = append(entries, &entry{v: v, first: idx})
			}
			entries[ei].count++
		}
		if len(entries) == 0 {
			return nil
		}
		return renderTopK(len(entries), ca.k,
			func(i, j int) int {
				if entries[i].count != entries[j].count {
					if entries[i].count > entries[j].count {
						return -1
					}
					return 1
				}
				if c := compareValues(ca.field.Kind, entries[i].v, entries[j].v); c != 0 {
					return c
				}
				return entries[i].first - entries[j].first
			},
			func(i int) (string, int) {
				return formatScalar(ca.field.Kind, entries[i].v), entries[i].count
			})
	}
	return nil
}
