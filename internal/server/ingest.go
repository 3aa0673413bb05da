// The write path: per-graph write-ahead queues with coalescing
// group-commit applies. Every mutation batch takes it.
//
// A PATCH batch lands in its graph's queue, bounded by IngestMaxDepth
// (ErrIngestBackpressure beyond it). The Enqueue that finds no drainer
// active wins drain duty. An applied-durability writer that wins it leads:
// on its own goroutine and under its own ctx it takes the per-graph
// mutation serializer, drains whatever accumulated while it waited for it
// and commits that group, so an uncontended PATCH applies exactly its own
// batch as a child of its own request span. Enqueued-durability acks, and
// whatever backlog built up during a leader's commit, go to a background
// drainer instead. Either way the serializer is taken FIRST and the queue
// drained second, so every batch that arrives while a commit holds the
// lock piles up and rides the next group. One group commit validates each
// batch in arrival order, coalesces the valid ones via the graph.Compact
// algebra into one merged batch, and runs that through the engine — N
// queued writers pay ~one probe + one machine region instead of N.
//
// Readers never see the queue: queries serve the last committed
// (version, scores) snapshot.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/dynamic"
	"repro/internal/obs"
)

// Durability levels for mutations (MutateRequest.Durability,
// Config.IngestDurability).
const (
	// DurabilityApplied acknowledges after the batch's group commit
	// lands: the caller observes the committed version. The default.
	DurabilityApplied = "applied"
	// DurabilityEnqueued acknowledges as soon as the batch is queued:
	// the result carries Queued=true, the current queue depth, and the
	// pre-commit version. Lowest latency, no apply guarantee on return.
	DurabilityEnqueued = "enqueued"
)

const defaultIngestMaxDepth = 256

type (
	ingestQueue   = dynamic.Queue[*MutateResult]
	ingestPending = dynamic.Pending[*MutateResult]
)

// MutateDurable is MutateCtx with an explicit acknowledgment level
// (empty = the server default): it admits the batch into the graph's
// write-ahead queue and acknowledges it at that level.
func (s *Server) MutateDurable(ctx context.Context, name string, muts []repro.Mutation, durability string) (*MutateResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("server: empty mutation batch")
	}
	switch durability {
	case "":
		durability = s.cfg.IngestDurability
	case DurabilityApplied, DurabilityEnqueued:
	default:
		return nil, fmt.Errorf("server: unknown durability %q (want %q or %q)",
			durability, DurabilityApplied, DurabilityEnqueued)
	}

	s.mu.Lock()
	ge, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	q, ok := s.queues[name]
	if !ok {
		q = dynamic.NewQueue[*MutateResult](s.cfg.IngestMaxDepth)
		s.queues[name] = q
	}
	s.mu.Unlock()

	p, depth, lead, err := q.Enqueue(muts, time.Now())
	if errors.Is(err, dynamic.ErrQueueFull) {
		s.m.ingestRejected.Inc()
		return nil, fmt.Errorf("%w: %q at depth %d", ErrIngestBackpressure, name, depth)
	}
	if err != nil {
		// Closed: evicted between the registry lookup and the enqueue;
		// same outcome as losing the lookup race outright.
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	s.m.ingestEnqueued.Inc()
	s.m.ingestDepth.Add(1)
	obs.SpanFromContext(ctx).SetAttr("durability", durability).SetAttr("queue_depth", depth).SetAttr("lead", lead)

	if durability == DurabilityEnqueued {
		if lead {
			go s.drainLoop(name, q)
		}
		res := unapplied(name, ge, "")
		res.Queued, res.QueueDepth = true, depth
		return res, nil
	}
	if lead {
		// Commit the group this batch heads here, under the request's ctx;
		// what queued up meanwhile is a background drainer's.
		if s.drainOnce(ctx, name, q) && !q.Release() {
			go s.drainLoop(name, q)
		}
	}
	return p.Wait(ctx) // ctx cancellation abandons the wait; the batch still commits
}

// unapplied is the result of a batch that reached no engine — acknowledged
// on enqueue, or cancelled out by its own group: the committed entry's
// version (on both sides) and size under the given strategy.
func unapplied(name string, ge *graphEntry, strategy string) *MutateResult {
	return &MutateResult{
		Graph: name, OldVersion: ge.version,
		ApplyReport: repro.ApplyReport{Version: ge.version, Strategy: strategy, N: ge.g.N, M: ge.g.M()},
	}
}

// drainOnce takes the per-graph mutation serializer, drains whatever
// accumulated while waiting for it, and group-commits that backlog under
// ctx. false means the queue was empty or closed and drain duty has been
// released. Taking the serializer before draining is what makes groups
// form: every batch that arrives during a commit joins the next group.
func (s *Server) drainOnce(ctx context.Context, name string, q *ingestQueue) bool {
	lk := s.mutLockFor(name)
	lk.Lock()
	defer lk.Unlock()
	group, ok := q.Drain()
	if !ok {
		return false
	}
	s.m.ingestDepth.Add(-float64(len(group)))
	if obs.SpanFromContext(ctx) == nil {
		// No request span to commit under (the background drainer, or an
		// untraced caller): the commit roots a trace of its own.
		var span *obs.Span
		ctx, span = s.cfg.Tracer.Start(ctx, "ingest.commit")
		defer span.End()
		span.SetAttr("graph", name)
	}
	s.commitGroup(ctx, name, group)
	return true
}

// drainLoop is the background drainer: it holds drain duty and commits
// group after group until a drain finds the queue empty or closed; the
// next Enqueue elects afresh.
func (s *Server) drainLoop(name string, q *ingestQueue) {
	for s.drainOnce(context.Background(), name, q) {
	}
}

// commitGroup applies one drained backlog as a single group commit. The
// caller holds the per-graph mutation serializer. Every pending batch is
// resolved exactly once: invalid batches individually (sequential-apply
// error semantics — one bad batch never poisons the group), valid ones
// with a copy of the shared commit result annotated per-batch.
//
// The commit is contained: a panic below it (the engine's, in practice)
// fails the batches still open with ErrInternal, counts on
// mfbc_panics_total{site="ingest.commit"}, and detaches the graph's engine,
// whose state is no longer trusted, so the next PATCH builds a new one.
// The caller's deferred unlock and duty handoff then run as usual.
func (s *Server) commitGroup(ctx context.Context, name string, group []*ingestPending) {
	commitStart := time.Now()
	open := group // batches not yet resolved
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.m.panics.With("ingest.commit").Inc()
		s.cfg.Logger.Error("panic in group commit", "graph", name, "panic", r, "stack", string(debug.Stack()))
		s.mu.Lock()
		if cur, ok := s.graphs[name]; ok {
			cur.dyn = nil
		}
		s.mu.Unlock()
		s.failBatches(open, fmt.Errorf("%w: panic in group commit of %q: %v", ErrInternal, name, r))
	}()

	s.mu.Lock()
	ge, ok := s.graphs[name]
	s.mu.Unlock()
	if !ok {
		// Evicted after these batches were drained (the depth gauge
		// already dropped them): fail them like Close-stranded orphans.
		s.failBatches(group, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
		return
	}

	valid, errs := admit(ge.g, group)
	open = valid
	for i, p := range group {
		if errs[i] != nil {
			s.m.ingestBatchErrors.Inc()
			p.Resolve(nil, errs[i])
		}
	}
	if len(valid) == 0 {
		return
	}

	var merged []repro.Mutation
	for _, p := range valid {
		merged = append(merged, p.Muts...)
	}
	coalesced := repro.CoalesceMutations(ge.g.Directed, merged)
	s.m.ingestCoalesced.Add(float64(len(valid)))
	s.m.ingestCommits.Inc()
	s.m.ingestGroupSize.Observe(float64(len(valid)))

	var res *MutateResult
	var err error
	if len(coalesced) == 0 {
		// The group cancelled itself out (adds matched by removes, sets
		// restoring prior weights may still remain — only a truly empty
		// compaction lands here). Nothing to apply; the committed state
		// already equals the group's outcome.
		res = unapplied(name, ge, "noop")
	} else {
		res, err = s.applyCommitted(ctx, name, ge, coalesced, len(valid), commitStart)
	}
	open = nil // nothing below panics
	if err != nil {
		// Engine or install failure (ErrGraphConflict on eviction races)
		// fails the whole group: none of its batches took effect.
		s.failBatches(valid, err)
		return
	}
	for _, p := range valid {
		wait := commitStart.Sub(p.EnqueuedAt)
		s.m.ingestQueueWait.Observe(wait.Seconds())
		r := *res
		r.CoalescedBatches = len(valid)
		r.QueueWaitMS = float64(wait.Microseconds()) / 1e3
		p.Resolve(&r, nil)
	}
}

// admit validates a group's batches in arrival order on one shadow of the
// committed graph g that accumulates the batches admitted so far,
// preserving one-at-a-time apply semantics: a batch that would have been
// rejected sequentially (double add, missing remove) is rejected here with
// its own error, before any engine runs, and later batches validate
// against the state the admitted ones leave. errs is index-aligned with
// group, nil for the batches in valid. A group without a rejection costs
// one Clone; a rejected batch that got part-way costs one more, to rebuild
// the shadow without it.
func admit(g *repro.Graph, group []*ingestPending) (valid []*ingestPending, errs []error) {
	errs = make([]error, len(group))
	shadow := g.Clone()
	for i, p := range group {
		applied, err := shadow.ApplyAll(p.Muts)
		if err == nil {
			valid = append(valid, p)
			continue
		}
		errs[i] = err
		if applied > 0 {
			shadow = g.Clone()
			for _, v := range valid {
				if _, err := shadow.ApplyAll(v.Muts); err != nil {
					panic(fmt.Sprintf("server: admitted batch no longer applies: %v", err))
				}
			}
		}
	}
	return valid, errs
}

// failBatches resolves batches that will not commit with err, counting
// each on the batch-error counter.
func (s *Server) failBatches(batches []*ingestPending, err error) {
	for _, p := range batches {
		s.m.ingestBatchErrors.Inc()
		p.Resolve(nil, err)
	}
}
