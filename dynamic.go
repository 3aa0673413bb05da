// Streaming façade: incremental betweenness centrality over an evolving
// graph (see internal/dynamic for the engine and strategy selection).
//
//	dyn, _ := repro.NewDynamicBC(g, repro.DynamicOptions{})
//	dyn.Apply([]repro.Mutation{{Op: repro.MutAddEdge, U: 3, V: 9, W: 1}})
//	snap := dyn.Scores() // consistent (graph version, scores) snapshot
//
// With Procs > 1 the engine runs every exact sweep on the simulated
// distributed machine, under the 1D decomposition that replicates the
// adjacency on every rank (p×1×1/X=B): each rank sweeps its share of the
// sources with no communication inside a sweep. The per-apply ApplyReport
// and the cumulative DynamicSnapshot then carry the modeled communication
// (critical-path words, messages, α–β–γ seconds) and that plan. The engine
// sweeps the default batch; it takes no forced plan or search constraint
// (those ablations govern core.DistOptions' one-shot runs).
//
// The façade declares no type of its own: DynamicBC, DynamicOptions,
// ApplyReport, DynamicSnapshot, PhaseComm and CommReport are the engine's
// types under their public names, so a method, an option or a report field
// is added in internal/dynamic and nowhere else.
package repro

import (
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

// DynamicOptions configures a DynamicBC engine: the engine's own Config,
// re-exported so a streaming option is declared and documented once.
// Transport is process-local and never serialized: rank-per-process
// deployments replicate the remaining options verbatim to every rank
// (internal/rankrun) and each process supplies its own endpoint.
type DynamicOptions = dynamic.Config

// PhaseComm re-exports one named region phase's share of an apply's
// modeled cost (diff / patch / sweep / reduce for an apply's region).
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

// DynamicBC maintains betweenness-centrality scores over an evolving
// graph: the streaming engine itself. Apply and ApplyCtx apply one batch
// atomically, Scores reads a consistent snapshot and Graph the current
// topology. All methods are safe for concurrent use; concurrent readers see
// either the pre- or post-batch snapshot of an Apply, never a torn state.
// Each apply is described by the ApplyReport it returns; what accumulates
// over applies is the snapshot's (Seq, Comm).
type DynamicBC = dynamic.Engine

// NewDynamicBC computes initial exact scores for g and returns the
// maintenance engine. g is cloned; the caller's graph stays independent.
func NewDynamicBC(g *Graph, opt DynamicOptions) (*DynamicBC, error) {
	return dynamic.New(g, opt)
}
