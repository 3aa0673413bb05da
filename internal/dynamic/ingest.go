// Write-ahead ingestion queue: the concurrency primitive behind the
// server's write path. A Queue collects mutation batches from many
// producers; a single drainer (elected by the queue itself via the
// startDrain handoff) takes the whole backlog at once, coalesces it, and
// group-commits through the engine, so N queued writers pay ~one probe +
// one machine region instead of N.
//
// The queue knows nothing about graphs or engines — it only tracks
// pending batches and who owes the drain. Callers provide the result
// type R that waiters receive when their batch resolves.
package dynamic

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/graph"
)

var (
	// ErrQueueFull is returned by Enqueue when the queue is at its
	// depth bound; callers surface it as backpressure (HTTP 429).
	ErrQueueFull = errors.New("dynamic: ingest queue full")
	// ErrQueueClosed is returned by Enqueue after Close — the owning
	// graph was evicted and the queue must never be reused.
	ErrQueueClosed = errors.New("dynamic: ingest queue closed")
)

// Pending is one producer's batch waiting in a Queue. The drainer calls
// Resolve exactly once; producers that asked for applied durability block
// in Wait until then.
type Pending[R any] struct {
	Muts       []graph.Mutation
	EnqueuedAt time.Time

	done chan struct{}
	res  R
	err  error
}

// Resolve delivers the batch's outcome and wakes every waiter. It must be
// called exactly once, by whoever removed the batch from the queue.
func (p *Pending[R]) Resolve(res R, err error) {
	p.res = res
	p.err = err
	close(p.done)
}

// Wait blocks until Resolve or ctx cancellation. A ctx error abandons
// only this wait — the batch is still in the queue and still commits.
func (p *Pending[R]) Wait(ctx context.Context) (R, error) {
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Queue is a bounded multi-producer, single-drainer mutation queue.
//
// Drain duty is handed off atomically with queue state: the Enqueue that
// finds no drainer active is told to start one (startDrain), and a
// drainer holds duty until a Drain or Release call finds the queue empty
// or closed.
// The handoff happens under one mutex, so there is no window where
// batches sit queued with nobody responsible for them, and never two
// drainers for one queue.
type Queue[R any] struct {
	maxDepth int // 0 or negative = unbounded

	mu       sync.Mutex
	pending  []*Pending[R] // guarded by mu
	draining bool          // guarded by mu
	closed   bool          // guarded by mu
}

// NewQueue returns a queue rejecting enqueues beyond maxDepth pending
// batches (maxDepth <= 0 means unbounded).
func NewQueue[R any](maxDepth int) *Queue[R] {
	return &Queue[R]{maxDepth: maxDepth}
}

// Enqueue appends a batch. depth is the queue depth including the new
// batch; startDrain is true iff the caller now holds drain duty (no
// drainer held it) and must drain, itself or through a goroutine it starts.
func (q *Queue[R]) Enqueue(muts []graph.Mutation, now time.Time) (p *Pending[R], depth int, startDrain bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, 0, false, ErrQueueClosed
	}
	if q.maxDepth > 0 && len(q.pending) >= q.maxDepth {
		return nil, len(q.pending), false, ErrQueueFull
	}
	p = &Pending[R]{Muts: muts, EnqueuedAt: now, done: make(chan struct{})}
	q.pending = append(q.pending, p)
	startDrain = !q.draining
	q.draining = true
	return p, len(q.pending), startDrain, nil
}

// Drain hands the entire backlog to the calling drainer. ok == false
// means the queue is empty or closed and drain duty has been released —
// the drainer must exit (a later Enqueue will elect a fresh one).
func (q *Queue[R]) Drain() (group []*Pending[R], ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.releaseLocked() {
		return nil, false
	}
	group = q.pending
	q.pending = nil
	return group, true
}

// Release gives up drain duty without taking work, if the queue is empty
// or closed, and reports whether it did. false means a backlog remains
// and the caller still owes it a drainer: a duty holder that will not
// loop itself hands the duty to one that will.
func (q *Queue[R]) Release() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.releaseLocked()
}

func (q *Queue[R]) releaseLocked() bool {
	if q.closed || len(q.pending) == 0 {
		q.draining = false
		return true
	}
	return false
}

// Close marks the queue unusable and returns the orphaned backlog; the
// caller owns failing those waiters. Idempotent.
func (q *Queue[R]) Close() []*Pending[R] {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	orphans := q.pending
	q.pending = nil
	return orphans
}

// Coalesce collapses a concatenated mutation stream into its compact
// equivalent under graph.Compact's algebra (add+remove cancels,
// remove+add becomes set_weight, chained sets keep the last, add_vertex
// hoisted). Replaying the result yields the same graph as replaying the
// input one op at a time — pinned by the compact_prop_test oracle.
func Coalesce(directed bool, muts []graph.Mutation) []graph.Mutation {
	return graph.Compact(directed, muts)
}
