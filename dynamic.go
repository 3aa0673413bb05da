// Streaming façade: incremental betweenness centrality over an evolving
// graph (see internal/dynamic for the engine and strategy selection).
//
//	dyn, _ := repro.NewDynamicBC(g, repro.DynamicOptions{})
//	dyn.Apply([]repro.Mutation{{Op: repro.MutAddEdge, U: 3, V: 9, W: 1}})
//	snap := dyn.Scores() // consistent (graph version, scores) snapshot
//
// With Procs > 1 the engine runs every exact sweep on the simulated
// distributed machine, keeping the stationary adjacency operands resident
// across applies and delta-patching them with each batch's edge diff; the
// per-apply ApplyReport and the cumulative DynamicSnapshot then carry the
// modeled communication (critical-path words, messages, α–β–γ seconds)
// and the decomposition plan chosen.
//
// The façade declares no description type of its own: DynamicOptions,
// ApplyReport, DynamicSnapshot, DynamicStats, PhaseComm and CommReport are
// the engine's types under their public names, so an option or a report
// field is added in internal/dynamic and nowhere else.
package repro

import (
	"context"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// Mutation is one graph edit; Op selects the kind (see the Mut* constants).
type Mutation = graph.Mutation

// Mutation op kinds, re-exported for callers of the streaming API.
const (
	MutAddEdge    = graph.OpAddEdge
	MutRemoveEdge = graph.OpRemoveEdge
	MutSetWeight  = graph.OpSetWeight
	MutAddVertex  = graph.OpAddVertex
)

// CoalesceMutations collapses a concatenated mutation stream into its
// compact equivalent (add+remove cancels, remove+add becomes set_weight,
// chained sets keep the last, add_vertex hoisted). Replaying the result
// yields the same graph as replaying the input one op at a time — this is
// the algebra the server's group-commit ingestion path applies before
// handing a merged batch to the engine.
func CoalesceMutations(directed bool, muts []Mutation) []Mutation {
	return dynamic.Coalesce(directed, muts)
}

// DynamicOptions configures a DynamicBC engine: the engine's own Config,
// re-exported so a streaming option is declared and documented once.
// Transport is process-local and never serialized: rank-per-process
// deployments replicate the remaining options verbatim to every rank
// (internal/rankrun) and each process supplies its own endpoint.
type DynamicOptions = dynamic.Config

// PhaseComm re-exports one named region phase's share of an apply's
// modeled cost (diff / patch / sweep / reduce for a fused apply).
type PhaseComm = dynamic.PhaseComm

// ApplyReport describes one applied mutation batch — the engine's own
// report, returned untouched: the strategy chosen (incremental or full),
// how many pivots were re-run, the new graph version, and — in
// distributed mode — the modeled communication, per-phase attribution and
// decomposition plan of this apply's machine runs. Fused marks incremental
// applies that executed as one machine region (both sides of the update
// riding the same supersteps). README "The apply report" lists the fields.
type ApplyReport = dynamic.Report

// DynamicSnapshot is a consistent view of the maintained state — the
// engine's own snapshot. Graph is the engine's immutable current topology
// (do not mutate it); BC is a private copy of the exact scores — for a
// cheaper sampled estimate of the same graph, call ApproximateBC on Graph.
// Plan, Comm and Phases run through the snapshot (latest plan, cumulative
// communication, latest apply's phases) and are zero-valued on
// shared-memory engines.
type DynamicSnapshot = dynamic.Snapshot

// DynamicStats re-exports the engine's cumulative counters.
type DynamicStats = dynamic.Stats

// DynamicBC maintains betweenness-centrality scores over an evolving
// graph. All methods are safe for concurrent use; concurrent readers see
// either the pre- or post-batch snapshot of an Apply, never a torn state.
type DynamicBC struct {
	eng *dynamic.Engine
}

// NewDynamicBC computes initial exact scores for g and returns the
// maintenance engine. g is cloned; the caller's graph stays independent.
func NewDynamicBC(g *Graph, opt DynamicOptions) (*DynamicBC, error) {
	eng, err := dynamic.New(g, opt)
	if err != nil {
		return nil, err
	}
	return &DynamicBC{eng: eng}, nil
}

// Apply atomically applies one mutation batch and refreshes the scores.
// On error (an invalid mutation anywhere in the batch) nothing is applied.
func (d *DynamicBC) Apply(batch []Mutation) (ApplyReport, error) {
	return d.ApplyCtx(context.Background(), batch)
}

// ApplyCtx is Apply with trace propagation: when ctx carries an
// observability span (internal/obs), the engine attaches child spans for
// the apply, its probes, and every machine region it runs.
func (d *DynamicBC) ApplyCtx(ctx context.Context, batch []Mutation) (ApplyReport, error) {
	return d.eng.ApplyCtx(ctx, batch)
}

// Scores returns the current consistent snapshot of the maintained state.
func (d *DynamicBC) Scores() DynamicSnapshot { return d.eng.Snapshot() }

// Graph returns the current immutable topology snapshot. Callers must not
// mutate it; use Apply.
func (d *DynamicBC) Graph() *Graph { return d.eng.Graph() }

// Stats returns cumulative engine counters.
func (d *DynamicBC) Stats() DynamicStats { return d.eng.Stats() }
