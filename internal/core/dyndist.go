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
	adjT   *sparse.CSR[float64] // Aᵀ, adjCSR itself when undirected; nil until transpose builds it
	exact  bool                 // exactSums of adjCSR's weights
	ranks  []*distRank
	// replica is set once an incremental apply has charged the staging of
	// the source route's replica (fused.go), which every rank then holds
	// and every later edit splices into; a rebuild clears it.
	replica bool
}

// distRank is one simulated rank's persistent state: its stationary
// operands, and the machine scratch store every Proc of the rank runs on,
// so what its regions reuse outlives them — Redistribute's send storage,
// Multiply's A placement, the distributions the rank has planned under
// (for A and Aᵀ alike), the sweeps' and the source route's buffers and the plans the rank has already searched for. A region's
// spgemm.Session then holds only its grids. Only the rank's own goroutine
// touches any of it, and the session's regions run one after another.
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
	at := adjCSR // an undirected Aᵀ is A
	if newG.Directed {
		at = sparse.Transpose(adjCSR)
	}
	// Each rank's shard of A and of Aᵀ is cut from the rows as they stand:
	// sorted, and sized exactly. An undirected graph cuts A twice, since
	// each resident is patched in place.
	shard := distmat.DistShard(s.p)
	as, ats := distmat.FromCSR(adjCSR, shard), distmat.FromCSR(at, shard)
	s.setTopology(newG, adjCSR, at)
	s.replica = false
	if s.ranks == nil {
		s.ranks = make([]*distRank, s.p)
		for r := range s.ranks {
			s.ranks[r] = new(distRank)
		}
	}
	for r, rk := range s.ranks {
		rk.a, rk.at = spgemm.NewStationary(as[r]), spgemm.NewStationary(ats[r])
	}
}

// Patch transitions the resident operands from the current topology to
// newG, whose edge set must differ from the current graph by exactly
// diffs. Each rank splices only the diff entries it owns into its resident
// operands — the shard-distributed blocks and every plan-specific staged
// working set — leaving each block entry-identical to a full re-staging of
// the new matrix while moving nothing on the simulated machine. The diff
// is globally known, mirroring the generator-replication input convention
// that reset cuts the residents by. Vertex growth changes the operand
// dimensions and falls back to reset. adjCSR is newG's adjacency (rebuilt
// when nil).
func (s *DistSession) Patch(newG *graph.Graph, adjCSR *sparse.CSR[float64], diffs []EdgeDiff) {
	if newG.N != s.g.N {
		s.reset(newG, adjCSR)
		return
	}
	if adjCSR == nil {
		adjCSR = newG.Adjacency()
	}
	directed := newG.Directed
	s.setTopology(newG, adjCSR, nil)
	if len(diffs) == 0 {
		return
	}
	editsA := adjacencyEdits(directed, diffs, false)
	editsAt := adjacencyEdits(directed, diffs, true)
	for r, rk := range s.ranks {
		rk.pendingFlops += rk.a.Patch(r, editsA) + rk.at.Patch(r, editsAt)
		if s.replica {
			rk.pendingFlops += int64(len(s.replicaOf(rk))) * int64(adjCSR.NNZ())
		}
	}
}

// setTopology makes g, with adjacency adj and its transpose at, the
// session's topology. An undirected Aᵀ is A; a directed one left nil is
// built when first asked for (transpose).
func (s *DistSession) setTopology(g *graph.Graph, adj, at *sparse.CSR[float64]) {
	if !g.Directed {
		at = adj
	}
	s.g, s.adjCSR, s.adjT, s.exact = g, adj, at, exactSums(adj.Val)
}

// transpose returns Aᵀ of the session's topology.
func (s *DistSession) transpose() *sparse.CSR[float64] {
	if s.adjT == nil {
		s.adjT = sparse.Transpose(s.adjCSR)
	}
	return s.adjT
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

// RunCtx is Run under ctx: a ctx that has ended, before the region or
// during it, ends the region at its ranks' next superstep, with ctx's
// cause as the error (on a tcp machine this poisons the mesh, like any
// region failure). When ctx carries an obs span, the region's
// modeled-vs-measured stats are attached as a machine.region child span
// with one grandchild per attributed phase.
func (s *DistSession) RunCtx(ctx context.Context, sources []int32) (*DistResult, error) {
	if err := CheckSources(s.g.N, sources); err != nil {
		return nil, err
	}
	nb := Options{Batch: s.opt.Batch}.batchFor(s.g.N)
	if sources != nil && len(sources) < nb {
		nb = len(sources)
	}
	pl := s.planner(s.g, s.exact)
	out, err := s.sweepRegion(ctx, pl, sources, nb)
	if err != nil {
		return nil, err
	}
	recordRegionSpan(ctx, "run", s.p, out)
	// The representative plans reported back: the ones a typical forward and
	// backward frontier product get (individual operations may choose
	// differently). They differ only where a backward product is planned
	// apart from a forced plan that runs no screen, or among the plans that
	// screen, on weights whose sums are inexact.
	nnz := int64(float64(nb) * s.g.AvgDegree())
	return &DistResult{
		BC: out.bc, Plan: pl.planFor(nil, nb, nnz, multpathBytes, false), BackPlan: pl.planFor(nil, nb, nnz, multpathBytes, true),
		Stats: out.stats, Iterations: out.iters, Batches: out.batches,
	}, nil
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

// planner returns the per-multiplication planner of a region over g, whose
// adjacency's path sums are exact when exact is set.
func (s *DistSession) planner(g *graph.Graph, exact bool) planner {
	return planner{
		p: s.p, n: g.N, adjNNZ: int64(g.AdjacencyNNZ()),
		model: machine.DefaultModel(), cons: s.opt.Constraint, forced: s.opt.Plan, exact: exact,
	}
}

// region runs body as every rank's part of one machine region, on the
// session's transport: each rank runs on its own store, charges the splice
// work host-side Patch calls left pending as local flops of its "patch"
// phase, the region that first benefits from the patched blocks, and then
// runs body. ctx is one more cause that ends the region: rank 0 fails the
// region with ctx's cause once ctx has ended — at once if it had ended
// before the region — so every rank of a tcp mesh unwinds with it.
func (s *DistSession) region(ctx context.Context, body func(*machine.Proc, *distRank)) (machine.RunStats, error) {
	return transportFor(s.p, s.opt).Run(func(proc *machine.Proc) {
		if proc.Rank() == 0 && ctx.Done() != nil {
			// A Fail that ctx has set off is waited for, so it lands inside
			// the region and Run reports it.
			failed := make(chan struct{})
			stop := context.AfterFunc(ctx, func() {
				proc.Fail(context.Cause(ctx))
				close(failed)
			})
			defer func() {
				if !stop() {
					<-failed
				}
			}()
		}
		rk := s.ranks[proc.Rank()]
		proc.UseStore(&rk.store)
		if rk.pendingFlops > 0 {
			proc.Phase(machine.PhasePatch)
			proc.AddFlops(rk.pendingFlops)
			rk.pendingFlops = 0
		}
		body(proc, rk)
	})
}

// regionOutcome is what one region leaves behind: rank 0's view of the
// allreduced accumulators (one n-vector per side, concatenated) and of
// the sweep counters, with the region's modeled stats.
type regionOutcome struct {
	bc             []float64
	stats          machine.RunStats
	iters, batches int
	// Products the region's multiplies formed and those the in-multiply
	// screens (scalarScreens) dropped before the kernel folded them, over
	// the ranks this process hosts.
	products, screened atomic.Int64
}

// reduceBufs is the closing reduction's storage on a rank's store: the
// rank's partial sums, all sides concatenated, and the allreduced total.
// A region clears acc before it sums into it; the reduction writes every
// entry of total.
type reduceBufs struct{ acc, total []float64 }

// sums returns the rank's partial sums of an n-vector per side, cleared,
// and the storage of their total.
func (red *reduceBufs) sums(n int) (acc, total []float64) {
	red.acc, red.total = grow(red.acc, n), grow(red.total, n)
	clear(red.acc)
	return red.acc, red.total
}

// sweepRegion runs Run's machine region: the batched MFBF/MFBr sweeps of
// sources (nil = every vertex) over the resident operands, planned by pl,
// T seeded from the session's adjacency, and one deferred reduction of the
// accumulated scores.
func (s *DistSession) sweepRegion(ctx context.Context, pl planner, sources []int32, nb int) (*regionOutcome, error) {
	n := s.g.N
	adj, alg := s.adjCSR, scalarAlgebra()
	out := &regionOutcome{bc: make([]float64, n)}
	stats, err := s.region(ctx, func(proc *machine.Proc, rk *distRank) {
		world := proc.World()
		sp := &planState{sess: spgemm.NewSession(proc), pl: pl, memo: machine.Scratch[planMemo](proc)}
		sp.sess.Workers = s.opt.Workers
		proc.Phase(machine.PhaseSweep)
		acc, total := machine.Scratch[reduceBufs](proc).sums(n)
		buf := machine.Scratch[sweepBufs[algebra.MultPath, algebra.CentPath, float64]](proc)
		if buf.mask == nil {
			buf.screen, buf.mask = alg.screens(buf)
		}
		iters, batches := 0, 0
		for _, batch := range batchList(n, nb, sources) {
			batches++
			t, itF := sweepMFBF(sp, buf, alg, rk.a, adj, batch)
			z, t, itB := sweepMFBr(sp, buf, alg, rk.at, t)
			iters += itF + itB
			// Accumulate under the distribution the last product left Z in.
			_, _, d := rk.at.Dists(sp.sess, sp.plan, z.Rows)
			distmat.ZipJoin(distmat.Redistribute(world, z, d), distmat.Redistribute(world, t, d),
				func(_, j int32, zc algebra.CentPath, tm algebra.MultPath) { acc[j] += zc.P * tm.M })
		}
		// One deferred dense reduction accumulates λ across processors.
		proc.Phase(machine.PhaseReduce)
		machine.AllreduceInto(world, acc, total, func(a, b float64) float64 { return a + b })
		out.products.Add(sp.sess.Products.Load()) // host-side sums: no modeled traffic
		out.screened.Add(sp.sess.Screened.Load())
		if proc.Rank() == 0 {
			copy(out.bc, total)
			out.iters, out.batches = iters, batches
		}
	})
	out.stats = stats
	return out, err
}
