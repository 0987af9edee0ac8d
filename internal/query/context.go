package query

import "context"

// Cooperative cancellation for the planned execution paths. Scans and
// aggregations are CPU-bound loops over millions of rows; when the caller's
// context dies (request timeout, disconnected client) the engine should stop
// burning cores, not finish a result nobody will read. The row loops poll a
// canceler at least every cancelStride rows — one non-blocking channel
// read, free when the context can never cancel — and every fan-out path
// joins its workers before surfacing ctx.Err(), so a cancelled call never
// leaks a goroutine.

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
