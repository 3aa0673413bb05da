// Async mutation ingestion: per-graph write-ahead queues with coalescing
// group-commit applies.
//
// With Config.IngestQueue set, a PATCH batch lands in the graph's queue
// instead of applying synchronously. The Enqueue that finds no drainer
// active elects one (a short-lived goroutine); the drainer takes the
// per-graph mutation serializer FIRST and only then drains, so every
// batch that arrives while a commit (or a sync-path Mutate) holds the
// lock piles up and rides the next group. One group commit validates each
// batch in arrival order, coalesces the valid ones via the graph.Compact
// algebra into one merged batch, and runs that through the existing fused
// distributed apply — N queued writers pay ~one probe + one machine region
// instead of N.
//
// Readers never see the queue: queries serve the last committed
// (version, scores) snapshot, exactly as with synchronous mutation.
package server

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/dynamic"
	"repro/internal/obs"
)

// Durability levels for queued mutations (MutateRequest.Durability,
// Config.IngestDurability).
const (
	// DurabilityApplied acknowledges after the batch's group commit
	// lands: the caller observes the committed version, like the sync
	// path. The default.
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
// (empty = the server default). Without an ingest queue it behaves
// exactly like the synchronous path regardless of durability.
func (s *Server) MutateDurable(ctx context.Context, name string, muts []repro.Mutation, durability string) (*MutateResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("server: empty mutation batch")
	}
	switch durability {
	case "":
		durability = s.ingestDurable
	case DurabilityApplied, DurabilityEnqueued:
	default:
		return nil, fmt.Errorf("server: unknown durability %q (want %q or %q)",
			durability, DurabilityApplied, DurabilityEnqueued)
	}
	if !s.ingest {
		return s.mutateSync(ctx, name, muts)
	}
	return s.mutateQueued(ctx, name, muts, durability)
}

// mutateQueued admits one batch into the graph's write-ahead queue and
// acknowledges it at the requested durability.
func (s *Server) mutateQueued(ctx context.Context, name string, muts []repro.Mutation, durability string) (*MutateResult, error) {
	_, span := obs.StartSpan(ctx, "ingest.enqueue")
	defer span.End()
	span.SetAttr("graph", name).SetAttr("mutations", len(muts)).SetAttr("durability", durability)

	s.mu.Lock()
	ge, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	q, ok := s.queues[name]
	if !ok {
		q = dynamic.NewQueue[*MutateResult](s.ingestMaxDepth)
		s.queues[name] = q
	}
	s.mu.Unlock()

	p, depth, startDrain, err := q.Enqueue(muts, time.Now())
	switch err {
	case nil:
	case dynamic.ErrQueueFull:
		s.m.ingestRejected.Inc()
		span.SetAttr("rejected", true)
		return nil, fmt.Errorf("%w: %q at depth %d", ErrIngestBackpressure, name, depth)
	case dynamic.ErrQueueClosed:
		// Evicted between the registry lookup and the enqueue; same
		// outcome as losing the lookup race outright.
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	default:
		return nil, err
	}
	s.m.ingestEnqueued.Inc()
	s.m.ingestDepth.Add(1)
	span.SetAttr("depth", depth)
	if startDrain {
		go s.drainLoop(name, q)
	}

	if durability == DurabilityEnqueued {
		return &MutateResult{
			Graph:      name,
			OldVersion: ge.version,
			Version:    ge.version, // pre-commit: the batch has not applied yet
			Queued:     true,
			QueueDepth: depth,
			N:          ge.g.N,
			M:          ge.g.M(),
		}, nil
	}
	return p.Wait(ctx) // ctx cancellation abandons the wait; the batch still commits
}

// drainLoop is the graph's elected drainer: repeatedly take the per-graph
// mutation serializer, drain whatever accumulated while waiting for it,
// and group-commit the backlog. Exits (releasing drain duty) when a drain
// finds the queue empty or closed; the next Enqueue elects a fresh
// drainer. Taking the serializer before draining is what makes groups
// form: every batch that arrives during a commit joins the next group.
func (s *Server) drainLoop(name string, q *ingestQueue) {
	for {
		lk := s.mutLockFor(name)
		lk.Lock()
		group, ok := q.Drain()
		if !ok {
			lk.Unlock()
			return
		}
		s.m.ingestDepth.Add(-float64(len(group)))
		s.commitGroup(name, group)
		lk.Unlock()
	}
}

// commitGroup applies one drained backlog as a single group commit. The
// caller holds the per-graph mutation serializer. Every pending batch is
// resolved exactly once: invalid batches individually (sequential-apply
// error semantics — one bad batch never poisons the group), valid ones
// with a copy of the shared commit result annotated per-batch.
func (s *Server) commitGroup(name string, group []*ingestPending) {
	ctx, span := s.tracer.Start(context.Background(), "ingest.commit")
	defer span.End()
	span.SetAttr("graph", name).SetAttr("batches", len(group))
	commitStart := time.Now()

	s.mu.Lock()
	ge, ok := s.graphs[name]
	s.mu.Unlock()
	if !ok {
		// Evicted after these batches were drained (the depth gauge
		// already dropped them): fail them like Close-stranded orphans.
		for _, p := range group {
			s.m.ingestBatchErrors.Inc()
			p.Resolve(nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
		}
		return
	}

	// Validate each batch in arrival order against a shadow graph that
	// accumulates the batches admitted so far, preserving one-at-a-time
	// apply semantics: a batch that would have been rejected sequentially
	// (double add, missing remove) is rejected here with its own error,
	// and later batches validate against the state it would have left.
	shadow := ge.g.Clone()
	valid := group[:0]
	var raw int
	for _, p := range group {
		next := shadow.Clone()
		if _, err := next.ApplyAll(p.Muts); err != nil {
			s.m.ingestBatchErrors.Inc()
			p.Resolve(nil, err)
			continue
		}
		shadow = next
		valid = append(valid, p)
		raw += len(p.Muts)
	}
	if len(valid) == 0 {
		return
	}

	merged := make([]repro.Mutation, 0, raw)
	for _, p := range valid {
		merged = append(merged, p.Muts...)
	}
	coalesced := repro.CoalesceMutations(ge.g.Directed, merged)
	s.m.ingestCoalesced.Add(float64(len(valid)))
	s.m.ingestCommits.Inc()
	s.m.ingestGroupSize.Observe(float64(len(valid)))
	span.SetAttr("raw_ops", raw).SetAttr("coalesced_ops", len(coalesced))

	var res *MutateResult
	var err error
	if len(coalesced) == 0 {
		// The group cancelled itself out (adds matched by removes, sets
		// restoring prior weights may still remain — only a truly empty
		// compaction lands here). Nothing to apply; the committed state
		// already equals the group's outcome.
		res = &MutateResult{
			Graph: name, OldVersion: ge.version, Version: ge.version,
			Strategy: "noop", N: ge.g.N, M: ge.g.M(),
		}
	} else {
		res, err = s.applyCommitted(ctx, name, ge, coalesced, commitStart)
	}
	if err != nil {
		// Engine or install failure (ErrGraphConflict on eviction races)
		// fails the whole group: none of its batches took effect.
		for _, p := range valid {
			s.m.ingestBatchErrors.Inc()
			p.Resolve(nil, err)
		}
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

// failOrphans resolves batches stranded by an eviction with
// ErrGraphNotFound, keeping the depth gauge and error counter honest.
func (s *Server) failOrphans(name string, orphans []*ingestPending) {
	if len(orphans) == 0 {
		return
	}
	s.m.ingestDepth.Add(-float64(len(orphans)))
	for _, p := range orphans {
		s.m.ingestBatchErrors.Inc()
		p.Resolve(nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
	}
}
