package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// errQueueFull is the admission queue's backpressure signal, mapped to
// 429 + Retry-After at the HTTP layer.
var errQueueFull = errors.New("serve: admission queue full")

// gate is the bounded admission queue in front of execution: at
// most `slots` requests execute concurrently, at most `queue` more
// wait for a slot, and everything beyond that is rejected immediately
// — the bus-arbitration lesson applied to the daemon: a shared
// resource under contention must bound its queue and shed load at the
// edge, or every request's latency degrades together.
type gate struct {
	slots   chan struct{}
	queue   int64
	waiting atomic.Int64
}

// newGate sizes the gate: slots executing, queue waiting.
func newGate(slots, queue int) *gate {
	g := &gate{slots: make(chan struct{}, slots), queue: int64(queue)}
	return g
}

// acquire claims an execution slot, waiting in the bounded queue when
// all slots are busy. It returns errQueueFull when the queue is at
// capacity and ctx.Err() when the caller's deadline expires while
// waiting. On success the returned release function must be called
// exactly once.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	default:
	}
	if g.waiting.Add(1) > g.queue {
		g.waiting.Add(-1)
		return nil, errQueueFull
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Waiting reports the current queue occupancy.
func (g *gate) Waiting() int64 { return g.waiting.Load() }

// InUse reports the busy execution slots.
func (g *gate) InUse() int { return len(g.slots) }
