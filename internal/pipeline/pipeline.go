// Package pipeline provides the concurrency primitives behind the parallel
// build/enrich path of the study: a work-stealing index pool (ForEach), a
// sharded map/merge fold for building per-worker accumulators (MapMerge), a
// sharded exactly-once memoization cache (Cache) and a serialized progress
// tracker (Tracker).
//
// The primitives are designed so that the parallel pipeline is byte-for-byte
// deterministic: every index is processed exactly once, each index writes
// only to state it owns, and merge steps are restricted to order-independent
// (commutative, associative) accumulators. Under those rules the output of a
// run with N workers is identical to the serial run, which the analysis
// package keeps behind Workers == 1 as the oracle for its equivalence tests.
//
// Consumers beyond the enrichment pipeline: the analysis scheduler runs its
// dependency-ordered task waves on ForEach, the clone-detection index sweeps
// on it too, Cache memoizes the per-APK AV scans, and the query engine's
// planned path runs every parallel stage on ForEach — its residual scan and
// both grouping routes one index per row chunk, merged in chunk order, and
// its per-group fill one index per group — one discipline carrying the
// repo's determinism-under-parallelism argument end to end. The query
// engine's row-at-a-time oracle keeps a fan-out of its own, so its
// equivalence tests never run both sides through one fan-out.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 mean runtime.NumCPU(),
// and the result is never larger than n (spawning more workers than items
// only burns goroutines) or smaller than 1.
func Workers(knob, n int) int {
	w := knob
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachWorker is the shared work-stealing loop: workers goroutines drain
// the indices [0, n) off one atomic counter, calling fn(worker, i) for each.
// Every index is claimed by exactly one worker. workers must already be
// resolved (>= 2).
func forEachWorker(n, workers int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) across the given number of
// workers. Each index is handed to exactly one worker via an atomic
// work-stealing counter, so fn must only write state owned by index i; under
// that rule the result is deterministic regardless of the worker count.
// With workers <= 1 the loop runs serially on the calling goroutine.
func ForEach(n, workers int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	forEachWorker(n, workers, func(_, i int) { fn(i) })
}

// MapMerge folds the indices [0, n) into per-worker accumulators and merges
// them into one. newAcc builds an empty accumulator, fold adds index i to a
// worker's private accumulator, and merge folds src into dst (dst is always
// the first worker's accumulator; merges run serially after all workers
// finish, in worker order).
//
// Which indices land in which worker's accumulator is not deterministic, so
// the accumulator must be order-independent: fold+merge must commute (counts,
// set unions, max/min — not ordered appends). Under that rule the merged
// result is identical to the serial fold, which is what makes the learned
// feature database independent of the worker count.
func MapMerge[A any](n, workers int, newAcc func() A, fold func(acc A, i int), merge func(dst, src A)) A {
	workers = Workers(workers, n)
	if workers == 1 {
		acc := newAcc()
		for i := 0; i < n; i++ {
			fold(acc, i)
		}
		return acc
	}
	accs := make([]A, workers)
	for w := range accs {
		accs[w] = newAcc()
	}
	forEachWorker(n, workers, func(worker, i int) { fold(accs[worker], i) })
	dst := accs[0]
	for _, src := range accs[1:] {
		merge(dst, src)
	}
	return dst
}

// Tracker serializes progress reports from concurrent workers: Tick may be
// called from any goroutine, and the callback always observes monotonically
// increasing done counts, one call at a time. A nil Tracker (no callback
// installed) is valid and Tick on it is a no-op.
type Tracker struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

// NewTracker builds a tracker over total items reporting to fn. It returns
// nil when fn is nil, so callers can unconditionally Tick.
func NewTracker(total int, fn func(done, total int)) *Tracker {
	if fn == nil {
		return nil
	}
	return &Tracker{total: total, fn: fn}
}

// Tick records one finished item and reports the new count.
func (t *Tracker) Tick() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.fn(t.done, t.total)
}
