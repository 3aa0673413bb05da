// Persistent distributed sessions: the streaming counterpart of
// MFBCDistributed. A DistSession keeps each simulated rank's stationary
// adjacency operands (A and Aᵀ as spgemm.Stationary values: the rank's
// block in the neutral shard distribution and every working set staged from
// it) resident across machine runs, so the placement cost of the stationary
// matrices — the once-per-run term amortized in the proof of Theorem 5.1 —
// is also amortized across the applies of an evolving-graph workload: a
// working set staged (replicated, for 3D plans) in one run is a warm hit in
// every later run. Small edge diffs are delta-patched into the resident
// operands (Patch) instead of redistributing the whole matrix per apply;
// only a vertex-set change forces a rebuild.
//
// A DistSession is owned by one driver (internal/dynamic's Engine holds it
// under its apply lock); Run and Patch must not be called concurrently.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// EdgeDiff is one edge of the effective difference between the session's
// current topology and its successor: the post-patch state of edge (U, V).
type EdgeDiff struct {
	U, V    int32
	W       float64 // weight after the patch (meaningful when Present)
	Present bool    // edge exists after the patch
}

// DistSession holds the per-rank resident state of a distributed MFBC
// computation across runs.
type DistSession struct {
	opt    DistOptions
	p      int
	g      *graph.Graph
	adjCSR *sparse.CSR[float64]
	ranks  []*distRank
}

// distRank is one simulated rank's persistent state: its stationary
// operands, and the machine scratch store every Proc of the rank runs on,
// so what its regions reuse outlives them — Redistribute's send storage,
// Multiply's A placement, the sweeps' buffers and the plans the rank has
// already searched for. Only the rank's own goroutine touches any of it,
// and the session's regions run one after another.
type distRank struct {
	a, at *spgemm.Stationary[float64]
	// pendingFlops is the local splice work of host-side Patch calls not
	// yet charged to the model; the next region charges it as γ-flops in
	// its "patch" phase, so delta-patching is never free compute.
	pendingFlops int64

	store machine.Store
}

// NewDistSession validates g and builds the resident operands for
// opt.Procs simulated ranks. opt.Sources is ignored; pass sources to Run.
func NewDistSession(g *graph.Graph, opt DistOptions) (*DistSession, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := opt.Procs
	if p < 1 {
		p = 1
	}
	if opt.Plan != nil && opt.Plan.Procs() != p {
		return nil, fmt.Errorf("core: plan %s does not tile %d processors", opt.Plan, p)
	}
	if opt.Transport != nil && opt.Transport.Size() != p {
		return nil, fmt.Errorf("core: transport spans %d ranks but session wants %d", opt.Transport.Size(), p)
	}
	s := &DistSession{opt: opt, p: p}
	s.reset(g, nil)
	return s, nil
}

// reset (re)builds every rank's operands from the global topology newG,
// with no working set staged, so the next runs pay full redistribution
// again. The rest of the rank carries over: splice work still pending from
// earlier Patch calls, which the next region charges all the same, and the
// storage its regions reuse. It builds a new session's residents, is the
// fallback for vertex-set changes (the operand dimensions move) and the
// full-redistribution oracle the differential tests pin delta-patching
// against (TestSessionPatchMatchesReset). adjCSR may be nil.
func (s *DistSession) reset(newG *graph.Graph, adjCSR *sparse.CSR[float64]) {
	if adjCSR == nil {
		adjCSR = newG.Adjacency()
	}
	trop := algebra.TropicalMonoid()
	adjCOO := adjCSR.ToCOO()
	atCOO := sparse.Transpose(adjCSR).ToCOO()
	shard := distmat.DistShard(s.p)
	s.g, s.adjCSR = newG, adjCSR
	if s.ranks == nil {
		s.ranks = make([]*distRank, s.p)
		for r := range s.ranks {
			s.ranks[r] = new(distRank)
		}
	}
	for r, rk := range s.ranks {
		rk.a = spgemm.NewStationary(distmat.FromGlobal(r, adjCOO, shard, trop))
		rk.at = spgemm.NewStationary(distmat.FromGlobal(r, atCOO, shard, trop))
	}
}

// Graph returns the topology the resident operands currently encode.
func (s *DistSession) Graph() *graph.Graph { return s.g }

// Patch transitions the resident operands from the current topology to
// newG, whose edge set must differ from the current graph by exactly
// diffs. Each rank splices only the diff entries it owns into its resident
// operands — the shard-distributed blocks and every plan-specific staged
// working set — leaving each block entry-identical to a full re-staging of
// the new matrix while moving nothing on the simulated machine. The diff
// is globally known, mirroring the generator-replication input convention
// of FromGlobal. Vertex growth changes the operand dimensions and falls
// back to reset. adjCSR is newG's adjacency (rebuilt when nil).
func (s *DistSession) Patch(newG *graph.Graph, adjCSR *sparse.CSR[float64], diffs []EdgeDiff) {
	if newG.N != s.g.N {
		s.reset(newG, adjCSR)
		return
	}
	if adjCSR == nil {
		adjCSR = newG.Adjacency()
	}
	directed := newG.Directed
	s.g, s.adjCSR = newG, adjCSR
	if len(diffs) == 0 {
		return
	}
	editsA := adjacencyEdits(directed, diffs, false)
	editsAt := adjacencyEdits(directed, diffs, true)
	for r, rk := range s.ranks {
		rk.pendingFlops += rk.a.Patch(r, editsA) + rk.at.Patch(r, editsAt)
	}
}

// adjacencyEdits expands an edge diff into sorted coordinate edits of the
// adjacency matrix (or, with transpose, of Aᵀ): undirected edges edit both
// orientations, directed edges one.
func adjacencyEdits(directed bool, diffs []EdgeDiff, transpose bool) []spgemm.StationaryEdit[float64] {
	out := make([]spgemm.StationaryEdit[float64], 0, 2*len(diffs))
	for _, d := range diffs {
		u, v := d.U, d.V
		if transpose {
			u, v = v, u
		}
		out = append(out, spgemm.StationaryEdit[float64]{I: u, J: v, V: d.W, Del: !d.Present})
		if !directed {
			out = append(out, spgemm.StationaryEdit[float64]{I: v, J: u, V: d.W, Del: !d.Present})
		}
	}
	// An edge diff names each edge once, so the coordinates are distinct.
	slices.SortFunc(out, func(a, b spgemm.StationaryEdit[float64]) int {
		return cmp.Compare(distmat.CoordKey(a.I, a.J), distmat.CoordKey(b.I, b.J))
	})
	return out
}

// Run computes the partial centrality Σ_{s∈sources} δ(s,·) of the resident
// topology on the simulated machine — every source of the graph when
// sources is nil — chunking explicit source sets into Batch-sized sweeps.
// Working sets staged by earlier runs of this session are warm hits: only
// the frontier matrices move.
func (s *DistSession) Run(sources []int32) (*DistResult, error) {
	return s.RunCtx(context.Background(), sources)
}

// RunCtx is Run with trace propagation: when ctx carries an obs span, the
// region's modeled-vs-measured stats are attached as a machine.region
// child span with one grandchild per attributed phase.
func (s *DistSession) RunCtx(ctx context.Context, sources []int32) (*DistResult, error) {
	if err := CheckSources(s.g.N, sources); err != nil {
		return nil, err
	}
	nb := Options{Batch: s.opt.Batch}.batchFor(s.g.N)
	if sources != nil && len(sources) < nb {
		nb = len(sources)
	}
	mach := transportFor(s.p, s.opt)
	pl := s.planner(mach, s.g)
	out, err := sweepRegion(s, mach, scalarAlgebra(), []planner{pl}, []*sparse.CSR[float64]{s.adjCSR}, sources, nb,
		func(_ *machine.Proc, rk *distRank) (a, at *spgemm.Stationary[float64]) { return rk.a, rk.at })
	if err != nil {
		return nil, err
	}
	recordRegionSpan(ctx, "run", s.p, out)
	// The representative plan reported back: the one a typical frontier
	// product gets (individual operations may choose differently).
	plan := pl.planFor(nil, nb, int64(float64(nb)*s.g.AvgDegree()), multpathBytes)
	return &DistResult{BC: out.bc, Plan: plan, Stats: out.stats, Iterations: out.iters, Batches: out.batches}, nil
}

// CheckSources reports the first entry of an explicit source list that is
// not a vertex of an n-vertex graph. A nil or empty list passes.
func CheckSources(n int, sources []int32) error {
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("core: source %d outside [0,%d)", s, n)
		}
	}
	return nil
}

// planner returns the per-multiplication planner of a region over g.
func (s *DistSession) planner(mach machine.Transport, g *graph.Graph) planner {
	return planner{
		p: s.p, n: g.N, adjNNZ: int64(g.AdjacencyNNZ()),
		model: mach.Model(), cons: s.opt.Constraint, forced: s.opt.Plan,
	}
}

// regionOutcome is what one sweep region leaves behind: rank 0's view of
// the allreduced accumulators (the sides' n-vectors, concatenated) and of
// the sweep counters, with the region's modeled stats.
type regionOutcome struct {
	bc                    []float64
	stats                 machine.RunStats
	iters, batches, split int
	// Products the region's multiplies evaluated and those the in-multiply
	// screens (screenAgainst, maskAgainst) dropped before the kernel folded
	// them, over the ranks this process hosts.
	products, screened atomic.Int64
}

// sweepRegion runs one machine region of batched MFBF/MFBr sweeps — the
// body shared by Run (one side over the resident operands) and
// ApplyIncrementalCtx (two sides over the staged pair operands). Every side
// sweeps every source of the batch list; side s is seeded from adj[s] and
// planned by pls[s]; stage yields each rank's stationary operands A and Aᵀ
// once its deferred patch work has been charged.
func sweepRegion[M multSided[M], C centSided[C], W any](
	s *DistSession, mach machine.Transport, alg sweepAlgebra[M, C, W],
	pls []planner, adj []*sparse.CSR[float64], sources []int32, nb int,
	stage func(*machine.Proc, *distRank) (a, at *spgemm.Stationary[W]),
) (*regionOutcome, error) {
	n := s.g.N
	out := &regionOutcome{bc: make([]float64, len(pls)*n)}
	stats, err := mach.Run(func(proc *machine.Proc) {
		world := proc.World()
		rk := s.ranks[proc.Rank()]
		proc.UseStore(&rk.store)
		sp := &sidePlans{sess: spgemm.NewSession(proc), pls: pls, plans: make([]spgemm.Plan, len(pls)), memo: machine.Scratch[planMemo](proc)}
		sp.sess.Workers = s.opt.Workers
		// Deferred host-side Patch splice work is charged here, as local
		// flops of the region that first benefits from the patched blocks.
		if rk.pendingFlops > 0 {
			proc.Phase(machine.PhasePatch)
			proc.AddFlops(rk.pendingFlops)
			rk.pendingFlops = 0
		}
		a, at := stage(proc, rk)

		proc.Phase(machine.PhaseSweep)
		acc := make([]float64, len(pls)*n)
		buf := machine.Scratch[sweepBufs[M, C]](proc)
		iters, batches := 0, 0
		for _, batch := range batchList(n, nb, sources) {
			batches++
			t, itF := sweepMFBF(sp, buf, alg, a, adj, batch)
			z, t, itB := sweepMFBr(sp, buf, alg, at, t)
			iters += itF + itB
			// Accumulate each side under the distribution its own last
			// product left Z in — Z's own at one side, a free no-op whenever
			// the sides agreed on their final plan — so the per-rank partial
			// sums, and with them the rounding of the closing allreduce,
			// group exactly as that side's scalar region would.
			for side, plan := range sp.plans {
				_, _, d := at.Dists(sp.sess, plan, z.Rows)
				bc := acc[side*n : (side+1)*n]
				distmat.ZipJoin(distmat.Redistribute(world, z, d), distmat.Redistribute(world, t, d),
					func(_, j int32, zc C, tm M) { bc[j] += zc.Side(side).P * tm.Side(side).M })
			}
		}
		// One deferred dense reduction accumulates λ across processors, all
		// sides concatenated.
		proc.Phase(machine.PhaseReduce)
		total := machine.Allreduce(world, acc, func(a, b float64) float64 { return a + b })
		out.products.Add(sp.sess.Products.Load()) // host-side sums: no modeled traffic
		out.screened.Add(sp.sess.Screened.Load())
		if proc.Rank() == 0 {
			copy(out.bc, total)
			out.iters, out.batches, out.split = iters, batches, sp.split
		}
	})
	out.stats = stats
	return out, err
}
