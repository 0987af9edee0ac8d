package query

import (
	"context"
	"runtime"

	"marketscope/internal/pipeline"
)

// Cooperative cancellation and fan-out for the planned execution paths.
// Scans and aggregations are CPU-bound loops over millions of rows; when the
// caller's context dies (request timeout, disconnected client) the engine
// should stop burning cores, not finish a result nobody will read. The row
// loops poll a canceler at least every cancelStride rows — one non-blocking
// channel read, free when the context can never cancel. Every planned stage
// fans out the same way: chunking splits its rows, forChunks runs the chunks
// on pipeline.ForEach and joins them before the stage surfaces ctx.Err(), so
// a cancelled call never leaks a goroutine, and per-chunk results come back
// in chunk order, so merging them keeps dataset order.

// cancelStride is the number of rows a scan loop processes between context
// checks: small enough that cancellation lands within microseconds of work,
// large enough that the poll is invisible in the per-row cost.
const cancelStride = 4096

// canceler is a cheap sampler of one context's done channel.
type canceler struct {
	done <-chan struct{}
}

func newCanceler(ctx context.Context) canceler {
	return canceler{done: ctx.Done()}
}

// hit reports whether the context has been cancelled. A background context
// (nil done channel) short-circuits to false.
func (c canceler) hit() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// chunkSplit is one split of n rows into count contiguous chunks: chunk w
// spans [w·size, min((w+1)·size, n)).
type chunkSplit struct{ n, size, count int }

// chunking splits n rows into one chunk below parallelThreshold, else one
// per GOMAXPROCS worker. It reads GOMAXPROCS once, so every pass over one
// split sees the same bounds.
func chunking(n int) chunkSplit {
	if n < parallelThreshold {
		return chunkSplit{n: n, size: n, count: 1}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	size := (n + workers - 1) / workers
	return chunkSplit{n: n, size: size, count: (n + size - 1) / size}
}

// forChunks runs fn(w, lo, hi) on every chunk of c — inline for one chunk,
// else on pipeline.ForEach with one worker per chunk — and returns the
// results indexed by chunk. pipeline.ForEach may hand one goroutine several
// chunks, so fn must write only chunk w's own state.
func forChunks[R any](c chunkSplit, fn func(w, lo, hi int) R) []R {
	out := make([]R, c.count)
	if c.count == 1 {
		out[0] = fn(0, 0, c.n)
		return out
	}
	pipeline.ForEach(c.count, c.count, func(w int) {
		out[w] = fn(w, w*c.size, min((w+1)*c.size, c.n))
	})
	return out
}
