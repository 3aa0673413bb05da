// Package dynamic maintains betweenness-centrality scores over an evolving
// graph: the streaming subsystem on top of the static MFBC machinery.
//
// The Engine owns an immutable (graph, scores) snapshot that atomically
// swaps on every applied mutation batch, so concurrent readers always see
// a consistent version — never a torn state. Per batch it chooses between
// two exact strategies:
//
//   - incremental: identify the sources whose shortest-path DAGs the batch
//     can touch (see affectedSources) and re-run only those pivots through
//     core's batched MFBC sweeps, subtracting their old contributions and
//     adding the new ones. This is the Kourtellis-style speedup: cost
//     scales with |affected|/n instead of 1.
//   - full: recompute from scratch when the affected fraction exceeds the
//     configured dirtiness threshold (incremental bookkeeping would cost
//     more than it saves).
//
// The engine keeps exact scores only. A sampled estimate of the live graph
// is repro.ApproximateBC over Engine.Graph(), the one implementation of the
// Bader et al. estimator.
//
// With Config.Procs > 1 every exact sweep — the initial scores, the
// incremental pivot re-runs, and the full-recompute fallbacks — executes
// on the simulated distributed machine through a persistent
// core.DistSession: the stationary adjacency operands (A, Aᵀ) stay
// resident across applies and each batch's edge diff is delta-patched into
// the resident blocks instead of redistributing the whole matrix, so the
// once-per-run placement cost of Theorem 5.1 amortizes across the whole
// mutation stream. An apply runs at most one machine region: an
// incremental apply with affected sources is one fused region
// (core.DistSession.ApplyIncrementalCtx: both sides' pivot re-runs over the
// pair semiring, operands patched mid-region, a vertex-growth batch's new
// vertices isolated on the old side), a full recompute is one run on the
// host-patched operands, and a batch with no affected source runs none —
// its diff is patched host-side. The modeled communication of each apply
// (critical-path words, messages, α–β–γ seconds, plan chosen) is reported
// per apply and accumulated into the snapshot.
//
// This package holds the one declaration of the streaming engine and of
// every description the layers above pass around: Engine
// (repro.DynamicBC), Config (repro.DynamicOptions), Report
// (repro.ApplyReport, embedded in the service's PATCH response), Snapshot
// (repro.DynamicSnapshot), and the flattened machine costs CommSummary
// (repro.CommReport) and PhaseComm, which travel together as a Cost from
// the region that incurred them to the report and the snapshot. An apply
// is described once, by the Report it returns; what accumulates across
// applies is the snapshot's (Seq counts them, Cost.Comm sums their
// regions).
//
// Affected-source detection is conservative-exact: a source s is re-run
// iff some edge of the effective batch diff lies on a shortest path from s
// in the pre-batch or post-batch graph. If no old or new shortest path
// from s uses a mutated edge, every old shortest path survives with its
// length and no shorter or additional path can have appeared, so δ(s,·)
// is unchanged and skipping s is exact. Membership is decided from
// distances to the mutated endpoints (one multi-source reverse SSSP per
// side, run on the snapshot's cached transpose), with an epsilon-tolerant
// equality so float path sums can only over-include, never under-include.
package dynamic

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the shared-memory parallelism of the local kernels.
	Workers int
	// DirtyThreshold is the affected-source fraction above which an exact
	// apply falls back to full recomputation. 0 selects the default 0.25;
	// negative disables the fallback (always incremental); values ≥ 1
	// effectively disable it too.
	DirtyThreshold float64

	// Procs > 1 runs every exact sweep on the simulated distributed
	// machine (core.MFBCDistributed's path) through a persistent
	// operand-resident session; see the package comment. 0 or 1 keeps the
	// shared-memory path. Every sweep runs the default batch
	// (core.Options.Batch) under the automatic plan search.
	Procs int

	// Transport pins every machine region the engine runs (initial sweep,
	// incremental re-runs, full fallbacks) to this backend instead of an
	// in-process simulated machine. Its Size must equal Procs. Under a
	// rank-per-process transport every process must drive an identical
	// engine with an identical op stream — the engine's host-side
	// decisions are deterministic functions of (initial graph, Config,
	// batch sequence), which is what makes that replication sound (see
	// internal/rankrun).
	Transport machine.Transport
}

const defaultDirtyThreshold = 0.25

// The values of Report.Strategy: how one apply produced its scores.
const (
	StrategyIncremental = "incremental"
	StrategyFull        = "full"
)

// CommSummary is the paper's per-run cost vocabulary (§6.2, §7) in one flat
// value: critical-path bytes, messages and generalized flops, the modeled
// α–β–γ seconds and the host wall-clock of the machine regions it sums
// (machine.RunStats flattened for reports and JSON). It is the one
// description of modeled communication — of a repro.Compute run, of one
// apply, and cumulatively of an engine — and zero-valued wherever no
// machine region ran.
type CommSummary struct {
	Runs     int64   `json:"runs"`      // machine regions summed
	Bytes    int64   `json:"bytes"`     // critical-path bytes
	Msgs     int64   `json:"msgs"`      // critical-path messages
	Flops    int64   `json:"flops"`     // critical-path generalized operations
	ModelSec float64 `json:"model_sec"` // modeled execution seconds (α–β–γ)
	CommSec  float64 `json:"comm_sec"`  // modeled communication seconds (α–β only)
	WallSec  float64 `json:"wall_sec"`  // host wall-clock seconds of the regions (informational)
}

// Summarize flattens one machine region's stats.
func Summarize(st machine.RunStats) CommSummary {
	return CommSummary{
		Runs: 1, Bytes: st.MaxCost.Bytes, Msgs: st.MaxCost.Msgs, Flops: st.MaxCost.Flops,
		ModelSec: st.ModelSec, CommSec: st.CommSec, WallSec: st.Wall.Seconds(),
	}
}

func (c *CommSummary) add(o CommSummary) {
	c.Runs += o.Runs
	c.Bytes += o.Bytes
	c.Msgs += o.Msgs
	c.Flops += o.Flops
	c.ModelSec += o.ModelSec
	c.CommSec += o.CommSec
	c.WallSec += o.WallSec
}

// PhaseComm is one named region phase's share of an apply's modeled cost
// (machine.PhaseStats flattened for reports and JSON). For a fused apply
// the phases are diff/patch/sweep/reduce.
type PhaseComm struct {
	Name     string  `json:"name"`
	Bytes    int64   `json:"bytes"`
	Msgs     int64   `json:"msgs"`
	Flops    int64   `json:"flops"`
	ModelSec float64 `json:"model_sec"`
	// WallMS is the measured host wall-clock of the phase in milliseconds
	// (max over ranks) — the observability counterpart of the modeled
	// ModelSec.
	WallMS float64 `json:"wall_ms"`
}

// Cost is what machine regions cost on the simulated machine: of one apply
// in a Report, and through a snapshot in Snapshot — there Comm accumulates
// over every region since the engine was built, Plan is the representative
// decomposition of the latest one and Phases the breakdown of the latest
// apply (shared; do not mutate). Zero-valued on shared-memory engines.
type Cost struct {
	Plan   string      `json:"plan,omitempty"`
	Comm   CommSummary `json:"comm"`
	Phases []PhaseComm `json:"phases,omitempty"`
}

// regionCost is the cost of one machine region, run under plan.
func regionCost(plan spgemm.Plan, st machine.RunStats) Cost {
	c := Cost{Plan: plan.String(), Comm: Summarize(st)}
	for _, ph := range st.Phases {
		c.Phases = append(c.Phases, PhaseComm{
			Name: ph.Name, Bytes: ph.MaxCost.Bytes, Msgs: ph.MaxCost.Msgs,
			Flops: ph.MaxCost.Flops, ModelSec: ph.ModelSec,
			WallMS: float64(ph.Wall.Microseconds()) / 1e3,
		})
	}
	return c
}

// state is one immutable (graph, scores) snapshot. Installed whole under
// the engine lock; never written after installation. The adjacency CSR and
// its transpose are built exactly once per snapshot and shared by the
// affected-source probes, the pivot re-runs, and the next apply's
// old-side bookkeeping.
type state struct {
	g       *graph.Graph
	a       *sparse.CSR[float64] // adjacency of g
	at      *sparse.CSR[float64] // transpose of a (reverse-graph adjacency)
	bc      []float64
	version uint64 // graph.Fingerprint(g)
	seq     uint64 // applies since engine creation
	cost    Cost   // through this snapshot
}

func newState(g *graph.Graph, seq uint64) *state {
	a := g.Adjacency()
	return &state{
		g: g, a: a, at: sparse.Transpose(a),
		version: graph.Fingerprint(g), seq: seq,
	}
}

// Report describes one applied batch. It is the one declaration of the
// apply report: repro.ApplyReport is this type, and the service's PATCH
// response embeds it (README "The apply report" is its field table).
type Report struct {
	Seq      uint64 `json:"seq"`              // snapshot sequence number after the apply
	Version  uint64 `json:"version"`          // structural fingerprint after the apply
	Applied  int    `json:"applied"`          // mutations in the batch
	Affected int    `json:"affected_sources"` // pivots re-run
	Strategy string `json:"strategy"`         // one of the Strategy* constants
	N        int    `json:"n"`
	M        int    `json:"m"`
	Procs    int    `json:"procs,omitempty"` // simulated processors (distributed mode)
	Fused    bool   `json:"fused,omitempty"` // this apply ran as one fused machine region
	// Cost is this apply's machine region, if one ran: plan, modeled
	// communication, per-phase attribution (distributed mode).
	Cost
	WallMS float64 `json:"wall_ms"` // host wall-clock of the whole apply
}

// Snapshot is a consistent read of the engine state. Graph is the live
// immutable snapshot — callers must not mutate it; BC is a private copy.
type Snapshot struct {
	Graph   *graph.Graph
	BC      []float64
	Version uint64
	Seq     uint64
	// Cost runs through this snapshot: cumulative Comm, latest Plan, the
	// latest apply's Phases.
	Cost
}

// Engine maintains BC scores over an evolving graph. All methods are safe
// for concurrent use; Apply calls serialize with each other while readers
// proceed against the latest installed snapshot.
type Engine struct {
	cfg Config

	applyMu sync.Mutex // serializes Apply; held across the whole compute
	// dist is the persistent distributed session (Procs > 1). Guarded by
	// applyMu; nil after a failed run, lazily rebuilt from the committed
	// snapshot.
	dist *core.DistSession

	mu  sync.RWMutex
	cur *state // guarded by mu
}

// New creates an engine over g, computing the initial exact scores (on the
// simulated distributed machine when cfg.Procs > 1). The engine clones g,
// so the caller's graph stays independent.
func New(g *graph.Graph, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamic: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	if cfg.DirtyThreshold == 0 { //lint:allow floateq zero is the unset-config sentinel, never computed
		cfg.DirtyThreshold = defaultDirtyThreshold
	}
	own := g.Clone()
	st := newState(own, 0)
	e := &Engine{cfg: cfg}
	// A machine run costs something; shared memory leaves the cost zero.
	bc, cost, err := e.sweep(context.Background(), st)
	if err != nil {
		return nil, err
	}
	st.bc = bc
	st.cost = Cost{Plan: cost.Plan, Comm: cost.Comm} // no apply's phases yet
	// The engine is not shared yet, but publishing the initial snapshot
	// under the lock keeps the guarded-field discipline uniform (and the
	// happens-before edge costs nothing here).
	e.mu.Lock()
	e.cur = st
	e.mu.Unlock()
	return e, nil
}

func (e *Engine) distOpts() core.DistOptions {
	return core.DistOptions{
		Procs: e.cfg.Procs, Workers: e.cfg.Workers, Transport: e.cfg.Transport,
	}
}

// Scores returns the current consistent (graph, scores, version) view.
func (e *Engine) Scores() Snapshot {
	e.mu.RLock()
	st := e.cur
	e.mu.RUnlock()
	return Snapshot{
		Graph:   st.g,
		BC:      append([]float64(nil), st.bc...),
		Version: st.version,
		Seq:     st.seq,
		Cost:    st.cost,
	}
}

// Graph returns the current immutable topology without copying the scores
// (Scores copies the whole vector). Callers must not mutate it.
func (e *Engine) Graph() *graph.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur.g
}

// Apply is ApplyCtx with a context that carries no trace: one batch
// applied atomically, nothing of it on error.
func (e *Engine) Apply(batch []graph.Mutation) (Report, error) {
	return e.ApplyCtx(context.Background(), batch)
}

// ApplyCtx atomically applies one mutation batch and refreshes the
// maintained scores. On error the engine state is unchanged (batches are
// applied to a private clone first). Readers concurrent with ApplyCtx see
// either the old or the new snapshot, never a mix. When ctx carries an obs
// span, the apply reports itself as a dynamic.apply child span, the
// affected-source probes and local sweeps as grandchildren, and every
// machine region as a machine.region span whose per-phase children pair
// modeled cost with measured wall-clock.
func (e *Engine) ApplyCtx(ctx context.Context, batch []graph.Mutation) (Report, error) {
	ctx, span := obs.StartSpan(ctx, "dynamic.apply")
	defer span.End()
	e.applyMu.Lock()
	defer e.applyMu.Unlock()

	e.mu.RLock()
	old := e.cur
	e.mu.RUnlock()

	start := time.Now()
	newG := old.g.Clone()
	if _, err := newG.ApplyAll(batch); err != nil {
		return Report{}, fmt.Errorf("dynamic: %w", err)
	}
	st := newState(newG, old.seq+1)
	diffs := batchDiff(old.g, newG, batch)

	_, probe := obs.StartSpan(ctx, "dynamic.probe")
	affected := affectedSources(old, st, diffs, e.cfg.Workers)
	probe.SetAttr("affected", len(affected)).SetAttr("diffs", len(diffs))
	probe.End()
	frac := 0.0
	if newG.N > 0 {
		frac = float64(len(affected)) / float64(newG.N)
	}
	strategy := StrategyIncremental
	var (
		bc    []float64
		cost  Cost // of this apply's machine region, if one ran
		fused bool
		err   error
	)
	switch {
	case e.cfg.DirtyThreshold > 0 && frac > e.cfg.DirtyThreshold:
		strategy = StrategyFull
		if err = e.advance(old, st, diffs); err == nil {
			bc, cost, err = e.sweep(ctx, st)
		}
	case e.cfg.Procs > 1 && len(affected) > 0:
		bc, cost, err = e.fusedIncrementalScores(ctx, old, st, affected, diffs)
		fused = true
	default:
		// Shared memory, or nothing to sweep: with no affected source a
		// fused region (diff scatter + full splice + empty sweep + O(n)
		// reduce) would only cost more than patching host-side.
		if err = e.advance(old, st, diffs); err == nil {
			bc = e.incrementalScores(ctx, old, st, affected)
		}
	}
	if err != nil {
		return Report{}, err
	}
	st.bc = bc

	// An apply that ran no region (e.g. a structural no-op batch) keeps the
	// previous plan.
	st.cost = Cost{Plan: cmp.Or(cost.Plan, old.cost.Plan), Comm: old.cost.Comm, Phases: cost.Phases}
	st.cost.Comm.add(cost.Comm)
	rep := Report{
		Seq: st.seq, Version: st.version, Applied: len(batch),
		Affected: len(affected), Strategy: strategy,
		N: newG.N, M: newG.M(), Procs: e.cfg.Procs, Fused: fused, Cost: cost,
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if e.cfg.Procs <= 1 {
		rep.Procs = 0
	}
	span.SetAttr("strategy", strategy).SetAttr("applied", len(batch)).
		SetAttr("affected", len(affected)).SetAttr("fused", fused).
		SetAttr("seq", st.seq)

	e.mu.Lock()
	e.cur = st
	e.mu.Unlock()
	return rep, nil
}

// advance moves the resident distributed operands, if any, from old's
// topology to st's host-side — delta-patching the blocks the diff touches
// (Patch itself rebuilds on vertex growth) — ahead of an apply that runs
// no fused region.
func (e *Engine) advance(old, st *state, diffs []edgeDiff) error {
	if e.cfg.Procs <= 1 {
		return nil
	}
	sess, err := e.session(old)
	if err != nil {
		return err
	}
	sess.Patch(st.g, st.a, coreDiffs(diffs))
	return nil
}

// session returns the live distributed session, rebuilding it on the given
// snapshot's topology after a prior run failure dropped it.
func (e *Engine) session(st *state) (*core.DistSession, error) {
	if e.dist == nil {
		sess, err := core.NewDistSession(st.g, e.distOpts())
		if err != nil {
			return nil, err
		}
		e.dist = sess
	}
	return e.dist, nil
}

// sweep is the exact full recompute over snapshot st: one machine region
// in distributed mode (Procs > 1), where the resident operands must already
// be at st's topology — a session dropped by a failed run is rebuilt from
// st — and the shared-memory kernel over st's cached operands otherwise,
// which costs nothing on the machine. When the region fails the session is
// dropped so the next apply rebuilds it from the committed snapshot (the
// resident operands may be mid-transition).
func (e *Engine) sweep(ctx context.Context, st *state) ([]float64, Cost, error) {
	if e.cfg.Procs <= 1 {
		return e.pivotScores(ctx, st, nil), Cost{}, nil
	}
	sess, err := e.session(st)
	if err != nil {
		return nil, Cost{}, err
	}
	r, err := sess.RunCtx(ctx, nil)
	if err != nil {
		e.dist = nil
		return nil, Cost{}, fmt.Errorf("dynamic: distributed run: %w", err)
	}
	return r.BC, regionCost(r.Plan, r.Stats), nil
}

// fusedIncrementalScores merges the batch's delta through one fused
// machine region: core.DistSession.ApplyIncrementalCtx computes both sides'
// pivot re-runs simultaneously over the pair semiring, patching the
// resident operands mid-region (diff scattered as a modeled collective,
// splice charged as local γ-flops), so the latency term is paid once. A
// vertex-growth batch's new vertices are isolated on the old side, so their
// old-side partials are 0. The side partials are bit-identical, under a
// fixed plan, to separate old-side and new-side runs.
func (e *Engine) fusedIncrementalScores(ctx context.Context, old, st *state, affected []int32, diffs []edgeDiff) ([]float64, Cost, error) {
	sess, err := e.session(old)
	if err != nil {
		return nil, Cost{}, err
	}
	res, err := sess.ApplyIncrementalCtx(ctx, affected, st.g, st.a, coreDiffs(diffs))
	if err != nil {
		// The resident operands may be mid-transition; rebuild from the
		// committed snapshot on the next apply.
		e.dist = nil
		return nil, Cost{}, fmt.Errorf("dynamic: fused apply: %w", err)
	}
	return mergeDelta(old.bc, st.g.N, res.OldBC, res.NewBC), regionCost(res.Plan, res.Stats), nil
}

// incrementalScores is the shared-memory incremental apply: the affected
// pivots re-run with batched MFBC sweeps on each side of the batch, merged
// by mergeDelta. Sources added by this batch have no contribution to
// subtract, and an empty side sweeps nothing (a nil source list would sweep
// every vertex).
func (e *Engine) incrementalScores(ctx context.Context, old, st *state, affected []int32) []float64 {
	if len(affected) == 0 {
		return mergeDelta(old.bc, st.g.N, nil, nil)
	}
	// affected is ascending, so the pre-batch sources are a prefix.
	var dOld []float64
	if cut, _ := slices.BinarySearch(affected, int32(old.g.N)); cut > 0 {
		dOld = e.pivotScores(ctx, old, affected[:cut])
	}
	return mergeDelta(old.bc, st.g.N, dOld, e.pivotScores(ctx, st, affected))
}

// mergeDelta returns the n-vector bc_old − δ_old + δ_new: δ_old is
// subtracted on the pre-batch vertices (those of bcOld), δ_new added on
// every vertex, and a nil side contributes nothing. Tiny negative residue
// is then zeroed: subtracting recomputed old contributions from the running
// vector can leave −1e-12-scale values at mathematically zero scores; large
// negatives would mean a bookkeeping bug and are left visible.
func mergeDelta(bcOld []float64, n int, dOld, dNew []float64) []float64 {
	bc := make([]float64, n)
	copy(bc, bcOld)
	if dOld != nil {
		for v := range bcOld {
			bc[v] -= dOld[v]
		}
	}
	if dNew != nil {
		for v := range bc {
			bc[v] += dNew[v]
		}
	}
	for v := range bc {
		if bc[v] < 0 && bc[v] > -1e-6 {
			bc[v] = 0
		}
	}
	return bc
}

// pivotScores is the shared-memory sweep: core.SweepSources for exactly the
// given sources (nil = every vertex) over the snapshot's cached operands,
// reported as a sweep.local span.
func (e *Engine) pivotScores(ctx context.Context, st *state, sources []int32) []float64 {
	swept := len(sources)
	if sources == nil {
		swept = st.g.N
	}
	_, span := obs.StartSpan(ctx, "sweep.local")
	defer span.SetAttr("sources", swept).End()
	return core.SweepSources(st.a, st.at, sources, core.Options{Workers: e.cfg.Workers}).BC
}

// edgeDiff is one edge of the effective difference between the pre- and
// post-batch graphs.
type edgeDiff struct {
	u, v         int32
	wOld, wNew   float64
	inOld, inNew bool
}

// coreDiffs converts the effective diff into core's operand-patch form
// (the post-batch side of each edge).
func coreDiffs(diffs []edgeDiff) []core.EdgeDiff {
	out := make([]core.EdgeDiff, len(diffs))
	for i, d := range diffs {
		out[i] = core.EdgeDiff{U: d.u, V: d.v, W: d.wNew, Present: d.inNew}
	}
	return out
}

// batchDiff reduces a mutation batch to the effective edge-level diff
// between oldG and newG: transient edges (added then removed within the
// batch) and no-op rewrites drop out; everything else reports its presence
// and weight on both sides.
func batchDiff(oldG, newG *graph.Graph, batch []graph.Mutation) []edgeDiff {
	seen := make(map[[2]int32]bool)
	var diffs []edgeDiff
	for _, m := range batch {
		if m.Op == graph.OpAddVertex {
			continue
		}
		u, v := m.U, m.V
		if !newG.Directed && u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		d := edgeDiff{u: u, v: v}
		d.wOld, d.inOld = oldG.FindEdge(u, v)
		d.wNew, d.inNew = newG.FindEdge(u, v)
		//lint:allow floateq no-op edit detection compares stored weights bit-for-bit, not arithmetic results
		if d.inOld == d.inNew && (!d.inOld || d.wOld == d.wNew) {
			continue // transient or no-op
		}
		diffs = append(diffs, d)
	}
	return diffs
}

// affectedSources returns, sorted ascending, every source vertex of the
// new snapshot whose dependency contributions can differ between the
// snapshots: those with a mutated edge on some shortest path in either
// graph. The test is epsilon-tolerant, so floating-point path sums can
// only widen the set. Both probes run on the snapshots' cached transposes.
func affectedSources(old, st *state, diffs []edgeDiff, workers int) []int32 {
	if len(diffs) == 0 {
		return nil
	}

	// d(s, e) for every source s and mutated endpoint e, on each side:
	// one multi-source SSSP from the endpoints on the reverse graph.
	oldEnds := endpointSet(diffs, func(d edgeDiff) bool { return d.inOld })
	newEnds := endpointSet(diffs, func(d edgeDiff) bool { return d.inNew })
	distOld := distancesTo(old.at, old.g.N, oldEnds, workers)
	distNew := distancesTo(st.at, st.g.N, newEnds, workers)

	affected := make([]bool, st.g.N)
	undirected := !st.g.Directed
	for _, d := range diffs {
		if d.inOld {
			markOnShortestPath(affected, distOld[d.u], distOld[d.v], d.wOld, undirected)
		}
		if d.inNew {
			markOnShortestPath(affected, distNew[d.u], distNew[d.v], d.wNew, undirected)
		}
	}
	var out []int32
	for s, a := range affected {
		if a {
			out = append(out, int32(s))
		}
	}
	return out
}

func endpointSet(diffs []edgeDiff, want func(edgeDiff) bool) []int32 {
	set := make(map[int32]bool)
	for _, d := range diffs {
		if want(d) {
			set[d.u] = true
			set[d.v] = true
		}
	}
	out := make([]int32, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	// The endpoints index the multi-source probe sweeps; a map-ordered
	// list would make the probe layout differ run to run.
	slices.Sort(out)
	return out
}

// distancesTo returns dist[e][s] = d(s → e) for every endpoint e: one
// multi-source MFBF sweep from the endpoints over the snapshot's cached
// transpose (the reverse graph's adjacency; for undirected graphs A is
// symmetric so the transpose is the graph itself).
func distancesTo(at *sparse.CSR[float64], n int, endpoints []int32, workers int) map[int32][]float64 {
	out := make(map[int32][]float64, len(endpoints))
	if len(endpoints) == 0 {
		return out
	}
	t, _, _ := core.MFBFParallel(at, endpoints, workers)
	for i, e := range endpoints {
		d := make([]float64, n)
		for v := range d {
			d[v] = math.Inf(1)
		}
		d[e] = 0 // MFBF suppresses the source diagonal
		cols, vals := t.Row(i)
		for k, v := range cols {
			d[v] = vals[k].W
		}
		out[e] = d
	}
	return out
}

// markOnShortestPath marks every source s for which edge (u→v, w) lies on
// a shortest path from s: d(s,u) + w == d(s,v), within a relative epsilon.
// Undirected edges are tested in both orientations.
func markOnShortestPath(affected []bool, distU, distV []float64, w float64, undirected bool) {
	n := len(distU)
	for s := 0; s < n && s < len(affected); s++ {
		du, dv := distU[s], distV[s]
		if onPath(du, dv, w) || (undirected && onPath(dv, du, w)) {
			affected[s] = true
		}
	}
}

func onPath(du, dv, w float64) bool {
	if math.IsInf(du, 1) || math.IsInf(dv, 1) {
		return false
	}
	sum := du + w
	tol := 1e-9 * (1 + math.Max(math.Abs(sum), math.Abs(dv)))
	return math.Abs(sum-dv) <= tol
}

// Coalesce collapses a concatenated mutation stream into its compact
// equivalent under graph.Compact's algebra (add+remove cancels,
// remove+add becomes set_weight, chained sets keep the last, add_vertex
// hoisted). Replaying the result yields the same graph as replaying the
// input one op at a time — pinned by the compact_prop_test oracle. The
// server's group commit calls graph.Compact directly; the benchmark's
// coalescing probe times this name.
func Coalesce(directed bool, muts []graph.Mutation) []graph.Mutation {
	return graph.Compact(directed, muts)
}
