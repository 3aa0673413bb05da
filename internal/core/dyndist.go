// Distributed sessions. A DistSession holds what the machine regions over
// one topology share, for opt.Procs simulated ranks: each rank's scratch
// store, so the storage a region grows outlives it, and the rank's shards
// of A and Aᵀ as Run's entry-list sweep multiplies them (spgemm.Stationary
// values: the rank's block in the neutral shard distribution and every
// working set staged from it), so the working sets one run stages are warm
// hits in the next — the once-per-run term amortized in the proof of
// Theorem 5.1.
//
// One-shot computations (MFBCDistributed) build a session per call and Run
// it. The streaming engine (internal/dynamic) keeps one across applies and
// runs every sweep as the source route (fused.go), which reads the
// session's adjacency CSRs — the replicated input — and not the shards: an
// apply moves the topology, and drops the shards rather than keep them
// current, so whatever needs them next cuts them again from the topology
// as it stands.
//
// A DistSession is owned by one driver (internal/dynamic's Engine holds it
// under its apply lock); its methods must not be called concurrently.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// EdgeDiff is one edge of the effective difference between the session's
// current topology and its successor: the post-apply state of edge (U, V).
type EdgeDiff struct {
	U, V    int32
	W       float64 // weight after the apply (meaningful when Present)
	Present bool    // edge exists after the apply
}

// DistSession holds the per-rank state of a distributed MFBC computation
// across runs.
type DistSession struct {
	opt    DistOptions
	p      int
	g      *graph.Graph
	adjCSR *sparse.CSR[float64] // A; nil until a region first reads it (adjacency)
	adjT   *sparse.CSR[float64] // a directed Aᵀ; nil until transpose builds it
	ranks  []*distRank
	// replica is set once a region has charged the staging of the source
	// route's replica (fused.go), which every rank then holds and every
	// later edit splices into; a vertex-set change clears it.
	replica bool
	// pending is the local work, per rank, of the replica splices of
	// applies that ran no region; the next region charges it as γ-flops of
	// its "patch" phase, so an edit is never free compute.
	pending int64
}

// distRank is one simulated rank's persistent state: its shards of the
// topology, and the machine scratch store every Proc of the rank runs on,
// so what its regions reuse outlives them — Redistribute's send storage,
// Multiply's A placement, the distributions the rank has planned under
// (for A and Aᵀ alike), the sweeps' and the source route's buffers and
// the plans the rank has already searched for. A region's spgemm.Session
// then holds only its grids. Only the rank's own goroutine touches any of
// it, and the session's regions run one after another.
type distRank struct {
	// a and at are the rank's shards of A and Aᵀ, with the working sets
	// Run's multiplies staged from them; nil from the moment the topology
	// moves until cutShards cuts them again.
	a, at *spgemm.Stationary[float64]

	store machine.Store
}

// NewDistSession validates g and makes it the topology of a session of
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
	s := &DistSession{opt: opt, p: p, ranks: make([]*distRank, p)}
	for r := range s.ranks {
		s.ranks[r] = new(distRank)
	}
	s.reset(g)
	return s, nil
}

// reset makes newG the session's topology with no replica staged, so the
// next region charges its staging again: a new session's topology, and
// the fallback for a vertex-set change, which moves the operand
// dimensions. Its adjacency is built when a region first reads it, so a
// session the engine moves at once onto its snapshot's CSRs never builds
// one. Splice work still pending carries over, which the next region
// charges all the same, and so does the storage the ranks' regions reuse.
func (s *DistSession) reset(newG *graph.Graph) {
	s.setTopology(newG, nil, nil)
	s.replica = false
}

// setTopology makes g, with adjacency adj and its transpose at, the
// session's topology, and drops the ranks' shards of the one before. Either
// left nil is built when first read (adjacency, transpose).
func (s *DistSession) setTopology(g *graph.Graph, adj, at *sparse.CSR[float64]) {
	s.g, s.adjCSR, s.adjT = g, adj, at
	for _, rk := range s.ranks {
		rk.a, rk.at = nil, nil
	}
}

// adjacency returns A of the session's topology.
func (s *DistSession) adjacency() *sparse.CSR[float64] {
	if s.adjCSR == nil {
		s.adjCSR = s.g.Adjacency()
	}
	return s.adjCSR
}

// transpose returns Aᵀ of the session's topology: A itself when undirected.
func (s *DistSession) transpose() *sparse.CSR[float64] {
	if !s.g.Directed {
		return s.adjacency()
	}
	if s.adjT == nil {
		s.adjT = sparse.Transpose(s.adjacency())
	}
	return s.adjT
}

// cutShards cuts every rank's shards of A and Aᵀ from the session's
// topology, unless the ranks hold them already. Each is cut from the rows
// as they stand — sorted, and sized exactly — and an undirected Aᵀ is A's
// block; nothing writes either.
func (s *DistSession) cutShards() {
	if s.ranks[0].a != nil {
		return
	}
	shard := distmat.DistShard(s.p)
	as := distmat.FromCSR(s.adjacency(), shard)
	ats := as
	if s.g.Directed {
		ats = distmat.FromCSR(s.transpose(), shard)
	}
	for r, rk := range s.ranks {
		rk.a, rk.at = spgemm.NewStationary(as[r]), spgemm.NewStationary(ats[r])
	}
}

// Run computes the partial centrality Σ_{s∈sources} δ(s,·) of the
// session's topology on the simulated machine — every source of the graph
// when sources is nil — chunking explicit source sets into Batch-sized
// sweeps. Working sets staged by earlier runs on the same topology are warm
// hits: only the frontier matrices move.
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
	s.cutShards()
	pl := s.planner()
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

// planner returns the per-multiplication planner of a region over the
// session's topology.
func (s *DistSession) planner() planner {
	return planner{
		p: s.p, n: s.g.N, adjNNZ: int64(s.g.AdjacencyNNZ()), model: machine.DefaultModel(),
		cons: s.opt.Constraint, forced: s.opt.Plan, exact: exactSums(s.adjacency().Val),
	}
}

// region runs body as every rank's part of one machine region, on the
// session's transport: each rank runs on its own store, charges the
// replica splices pending on the session as local flops of its "patch"
// phase, and then runs body. ctx is one more cause that ends the region:
// rank 0 fails the region with ctx's cause once ctx has ended — at once if
// it had ended before the region — so every rank of a tcp mesh unwinds
// with it.
func (s *DistSession) region(ctx context.Context, body func(*machine.Proc, *distRank)) (machine.RunStats, error) {
	pending := s.pending
	s.pending = 0
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
		if pending > 0 {
			proc.Phase(machine.PhasePatch)
			proc.AddFlops(pending)
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
	// screens (sweepBufs.screens) dropped before the kernel folded them, over
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
// sources (nil = every vertex) over the ranks' shards, planned by pl,
// T seeded from the session's adjacency, and one deferred reduction of the
// accumulated scores.
func (s *DistSession) sweepRegion(ctx context.Context, pl planner, sources []int32, nb int) (*regionOutcome, error) {
	n := s.g.N
	adj := s.adjacency()
	out := &regionOutcome{bc: make([]float64, n)}
	stats, err := s.region(ctx, func(proc *machine.Proc, rk *distRank) {
		world := proc.World()
		sp := &planState{sess: spgemm.NewSession(proc), pl: pl, memo: machine.Scratch[planMemo](proc)}
		sp.sess.Workers = s.opt.Workers
		proc.Phase(machine.PhaseSweep)
		acc, total := machine.Scratch[reduceBufs](proc).sums(n)
		buf := machine.Scratch[sweepBufs](proc)
		iters, batches := 0, 0
		for _, batch := range batchList(n, nb, sources) {
			batches++
			t, itF := sweepMFBF(sp, buf, rk.a, adj, batch)
			z, t, itB := sweepMFBr(sp, buf, rk.at, t)
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
