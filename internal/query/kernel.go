package query

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// Residual filter kernels. Each residual filter compiles once per request
// into a kernel over its typed column, and a kernel call refines a selection
// vector — the ascending row ids of one block still in the running — in
// place, keeping the rows whose value passes. A block costs one call per
// filter, not one closure call per row, and the comparison loops run over
// machine types.
//
// Kernels compare exactly as compareValues does, so a residual scan answers
// row for row like the oracle: a NaN compares equal to everything, which
// makes `<=` read !(v > w) and `>=` read !(v < w); times compare as
// (seconds, nanoseconds) instants; a dictionary column compares codes, whose
// order is value order. Null rows never pass anything but is_null.

// blockSize is the number of rows one kernel call refines at most. The full
// scan also cuts blocks at zone-map segment boundaries (segmentSize is a
// multiple of it in production), and it is below cancelStride, so polling
// the canceler once per block keeps the cancellation bound.
const blockSize = 1024

// kernel is one compiled residual filter. The null rows of nulls, when it
// is non-nil, are dropped before keep runs; keep refines the remaining rows
// and is nil when every non-null row passes.
type kernel struct {
	nulls bitset
	keep  func(sel []int32) []int32
}

// kernels compiles a conjunction of filters against their columns.
func (e *Engine[T]) kernels(filters []compiledFilter[T]) []kernel {
	ks := make([]kernel, len(filters))
	for i, cf := range filters {
		ks[i] = newKernel(e.columnFor(e.ordinals[cf.field.Name]), cf.op, cf.operand, cf.operands, cf.wantNull)
	}
	return ks
}

// runKernels refines sel through every kernel in turn and returns the rows
// passing all of them, stopping once none is left.
func runKernels(ks []kernel, sel []int32) []int32 {
	for i := range ks {
		if len(sel) == 0 {
			break
		}
		k := &ks[i]
		if k.nulls != nil {
			sel = keepNullness(sel, k.nulls, false)
		}
		if k.keep != nil {
			sel = k.keep(sel)
		}
	}
	return sel
}

// blockPool recycles the selection vectors eachPassing refines, one per
// call in flight, so a cell's where filters allocate nothing per group.
var blockPool = sync.Pool{New: func() any { return new([blockSize]int32) }}

// eachPassing calls fn with the rows of the ascending list rows that pass
// every kernel, one block at a time and in order; with no kernels, fn sees
// rows whole. rows is never written.
func eachPassing(ks []kernel, rows []int32, fn func(sel []int32)) {
	if len(ks) == 0 {
		fn(rows)
		return
	}
	buf := blockPool.Get().(*[blockSize]int32)
	defer blockPool.Put(buf)
	for i := 0; i < len(rows); i += blockSize {
		sel := runKernels(ks, buf[:copy(buf[:], rows[i:])])
		if len(sel) > 0 {
			fn(sel)
		}
	}
}

// newKernel compiles one filter against its column. A null row fails every
// operator but is_null, so the other operators drop nulls first — only when
// the column has any.
func newKernel(col *column, op Op, operand any, operands []any, wantNull bool) kernel {
	var nulls bitset
	if col.nullCount > 0 {
		nulls = col.nulls
	}
	if op == OpIsNull {
		switch {
		case nulls == nil && wantNull:
			return kernel{keep: keepNone}
		case wantNull:
			return kernel{keep: func(sel []int32) []int32 { return keepNullness(sel, nulls, true) }}
		}
		return kernel{nulls: nulls}
	}
	return kernel{nulls: nulls, keep: valueKernel(col, op, operand, operands)}
}

// valueKernel builds the keep function of a value comparison over the
// non-null rows of col; nil keeps every one.
func valueKernel(col *column, op Op, operand any, operands []any) func([]int32) []int32 {
	if col.dict != nil {
		return dictKernel(col, op, operand, operands)
	}
	switch col.kind {
	case KindInt:
		if op == OpIn {
			return keepIn(col.ints, typedOperands[int64](operands))
		}
		return keepOrdered(col.ints, op, operand.(int64))
	case KindFloat:
		if op == OpIn {
			ws := typedOperands[float64](operands)
			for _, w := range ws {
				if w != w {
					return nil // a NaN operand equals every value
				}
			}
			return keepIn(col.floats, ws)
		}
		w := operand.(float64)
		if op == OpEq || op == OpNe {
			return keepFloatEq(col.floats, w, op == OpEq)
		}
		return keepOrdered(col.floats, op, w)
	case KindString:
		switch op {
		case OpContains:
			strs, sub := col.strs, operand.(string)
			return func(sel []int32) []int32 {
				k := 0
				for _, r := range sel {
					sel[k] = r
					if strings.Contains(strs[r], sub) {
						k++
					}
				}
				return sel[:k]
			}
		case OpIn:
			return keepIn(col.strs, typedOperands[string](operands))
		}
		return keepOrdered(col.strs, op, operand.(string))
	case KindBool:
		var table [2]bool
		if op == OpIn {
			for _, w := range typedOperands[bool](operands) {
				table[b2i(w)] = true
			}
		} else {
			w := operand.(bool)
			table[b2i(w)] = op == OpEq
			table[b2i(!w)] = op == OpNe
		}
		bools := col.bools
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if table[b2i(bools[r])] {
					k++
				}
			}
			return sel[:k]
		}
	case KindTime:
		if op == OpIn {
			return keepTimeIn(col, operands)
		}
		t := operand.(time.Time)
		return keepTime(col.timeSec, col.timeNsec, op, t.Unix(), int32(t.Nanosecond()))
	}
	return keepNone
}

// dictKernel compiles a filter over a dictionary-encoded column. The sorted
// dictionary turns an ordering operator into one code comparison: the
// operand's insertion point splits the codes into the values below it and
// the values at or above it. in and contains test a per-entry table.
func dictKernel(col *column, op Op, operand any, operands []any) func([]int32) []int32 {
	codes := col.codes
	var table []bool
	switch op {
	case OpIn:
		table = make([]bool, len(col.dict))
		for _, w := range typedOperands[string](operands) {
			if k, ok := dictCode(col.dict, w); ok {
				table[k] = true
			}
		}
	case OpContains:
		table = make([]bool, len(col.dict))
		sub := operand.(string)
		for k, s := range col.dict {
			table[k] = strings.Contains(s, sub)
		}
	default:
		firstGE, exact := dictCode(col.dict, operand.(string))
		firstGT := firstGE
		if exact {
			firstGT++
		}
		switch op {
		case OpEq:
			if !exact {
				return keepNone
			}
			return keepOrdered(codes, OpEq, firstGE)
		case OpNe:
			if !exact {
				return nil
			}
			return keepOrdered(codes, OpNe, firstGE)
		case OpLt:
			return keepOrdered(codes, OpLt, firstGE)
		case OpLe:
			return keepOrdered(codes, OpLt, firstGT)
		case OpGt:
			return keepOrdered(codes, OpGe, firstGT)
		case OpGe:
			return keepOrdered(codes, OpGe, firstGE)
		}
		return keepNone
	}
	return func(sel []int32) []int32 {
		k := 0
		for _, r := range sel {
			sel[k] = r
			if table[codes[r]] {
				k++
			}
		}
		return sel[:k]
	}
}

// dictCode returns the insertion point of s in the sorted dictionary dict,
// which is its code when exact.
func dictCode(dict []string, s string) (code uint32, exact bool) {
	k := sort.SearchStrings(dict, s)
	return uint32(k), k < len(dict) && dict[k] == s
}

// keepOrdered keeps the rows whose value v satisfies op against w. Each
// operator is one comparison and a polarity: < and >= test v < w, > and <=
// test v > w, == and != test v == w. With a NaN on either side v < w and
// v > w both fail, so <= and >= hold and < and > do not, as under
// cmpOrdered; == on floats goes through keepFloatEq instead.
func keepOrdered[V int64 | float64 | string | uint32](vals []V, op Op, w V) func([]int32) []int32 {
	want := op == OpLt || op == OpGt || op == OpEq
	switch op {
	case OpLt, OpGe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if (vals[r] < w) == want {
					k++
				}
			}
			return sel[:k]
		}
	case OpGt, OpLe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if (vals[r] > w) == want {
					k++
				}
			}
			return sel[:k]
		}
	case OpEq, OpNe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if (vals[r] == w) == want {
					k++
				}
			}
			return sel[:k]
		}
	}
	return keepNone
}

// keepFloatEq is == (eq) or != on a float column under cmpOrdered, for which
// a NaN on either side compares equal.
func keepFloatEq(vals []float64, w float64, eq bool) func([]int32) []int32 {
	if w != w {
		if eq {
			return nil
		}
		return keepNone
	}
	return func(sel []int32) []int32 {
		k := 0
		for _, r := range sel {
			v := vals[r]
			sel[k] = r
			if (v == w || v != v) == eq {
				k++
			}
		}
		return sel[:k]
	}
}

// keepIn keeps the rows whose value equals one of ws. v != v holds only for
// a NaN, which cmpOrdered reads as equal to every operand.
func keepIn[V int64 | float64 | string](vals []V, ws []V) func([]int32) []int32 {
	return func(sel []int32) []int32 {
		k := 0
		for _, r := range sel {
			v := vals[r]
			sel[k] = r
			if v != v {
				k++
				continue
			}
			for _, w := range ws {
				if v == w {
					k++
					break
				}
			}
		}
		return sel[:k]
	}
}

// keepTime keeps the rows whose instant satisfies op against (wsec, wnsec),
// one comparison and a polarity per operator as in keepOrdered.
func keepTime(secs []int64, nsecs []int32, op Op, wsec int64, wnsec int32) func([]int32) []int32 {
	want := op == OpLt || op == OpGt || op == OpEq
	wantBit := uint64(b2i(want))
	switch op {
	case OpLt, OpGe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if instantLess(secs[r], nsecs[r], wsec, wnsec) == wantBit {
					k++
				}
			}
			return sel[:k]
		}
	case OpGt, OpLe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if instantLess(wsec, wnsec, secs[r], nsecs[r]) == wantBit {
					k++
				}
			}
			return sel[:k]
		}
	case OpEq, OpNe:
		return func(sel []int32) []int32 {
			k := 0
			for _, r := range sel {
				sel[k] = r
				if (secs[r] == wsec && nsecs[r] == wnsec) == want {
					k++
				}
			}
			return sel[:k]
		}
	}
	return keepNone
}

// instantLess is 1 when the instant (sec, nsec) is before (sec2, nsec2) and
// 0 otherwise, as compareTime orders them: the borrow out of subtracting the
// two as 128-bit numbers, seconds high (sign bit flipped, so that signed
// order is unsigned order) and nanoseconds, which are never negative, low.
// Unlike || and &&, the borrow chain has no data-dependent branch.
func instantLess(sec int64, nsec int32, sec2 int64, nsec2 int32) uint64 {
	_, borrow := bits.Sub64(uint64(nsec), uint64(nsec2), 0)
	_, borrow = bits.Sub64(uint64(sec)^1<<63, uint64(sec2)^1<<63, borrow)
	return borrow
}

// keepTimeIn keeps the rows whose instant equals one of the operands'.
func keepTimeIn(col *column, operands []any) func([]int32) []int32 {
	secs, nsecs := col.timeSec, col.timeNsec
	wsecs := make([]int64, len(operands))
	wnsecs := make([]int32, len(operands))
	for i, operand := range operands {
		t := operand.(time.Time)
		wsecs[i], wnsecs[i] = t.Unix(), int32(t.Nanosecond())
	}
	return func(sel []int32) []int32 {
		k := 0
		for _, r := range sel {
			sel[k] = r
			for i, ws := range wsecs {
				if secs[r] == ws && nsecs[r] == wnsecs[i] {
					k++
					break
				}
			}
		}
		return sel[:k]
	}
}

// keepNullness keeps the rows whose null bit equals null.
func keepNullness(sel []int32, nulls bitset, null bool) []int32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		if nulls.get(int(r)) == null {
			k++
		}
	}
	return sel[:k]
}

// keepNone is the kernel of a filter no row can pass.
func keepNone(sel []int32) []int32 { return sel[:0] }

// typedOperands unboxes an in-list's normalized operands.
func typedOperands[V any](operands []any) []V {
	ws := make([]V, len(operands))
	for i, operand := range operands {
		ws[i] = operand.(V)
	}
	return ws
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
