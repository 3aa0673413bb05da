// Persistent distributed sessions: the streaming counterpart of
// MFBCDistributed. A DistSession keeps each simulated rank's share of the
// stationary adjacency operands (A and Aᵀ, in the neutral shard
// distribution) and its spgemm operand cache resident across machine runs,
// so the placement cost of the stationary matrices — the once-per-run term
// amortized in the proof of Theorem 5.1 — is also amortized across the
// applies of an evolving-graph workload: a working set staged (replicated,
// for 3D plans) in one run is a warm cache hit in every later run. Small
// edge diffs are delta-patched into the resident blocks (Patch) instead of
// redistributing the whole matrix per apply; only a vertex-set change
// forces a rebuild.
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
	opt       DistOptions
	p         int
	g         *graph.Graph
	adjCSR    *sparse.CSR[float64]
	ranks     []*distRank
	evictBase int64 // operand-cache evictions of caches dropped by install
}

// distRank is one simulated rank's persistent state: its shard of the
// stationary operands, its staged-working-set cache and the storage of the
// position table its sweeps find T through.
type distRank struct {
	aMat, atMat *distmat.Mat[float64]
	cache       *spgemm.OperandCache
	index       blockIndex
	// pendingFlops is the local splice work of host-side Patch calls not
	// yet charged to the model; the next region charges it as γ-flops in
	// its "patch" phase, so delta-patching is never free compute.
	pendingFlops int64
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
	s.install(g, g.Adjacency())
	return s, nil
}

// install (re)builds every rank's operand shards from the global topology
// with fresh operand caches (bounded per matrix by opt.CacheSets).
func (s *DistSession) install(g *graph.Graph, adjCSR *sparse.CSR[float64]) {
	trop := algebra.TropicalMonoid()
	adjCOO := adjCSR.ToCOO()
	atCOO := sparse.Transpose(adjCSR).ToCOO()
	shard := distmat.DistShard(s.p)
	s.g, s.adjCSR = g, adjCSR
	for _, rk := range s.ranks {
		s.evictBase += rk.cache.Evictions()
	}
	s.ranks = make([]*distRank, s.p)
	for r := 0; r < s.p; r++ {
		rk := &distRank{
			aMat:  distmat.FromGlobal(r, adjCOO, shard, trop),
			atMat: distmat.FromGlobal(r, atCOO, shard, trop),
			cache: spgemm.NewOperandCacheSized(s.opt.CacheSets),
		}
		// Pin the matrix identities host-side, before any rank goroutine
		// could race to lazily assign them.
		rk.aMat.ID()
		rk.atMat.ID()
		s.ranks[r] = rk
	}
}

// Graph returns the topology the resident operands currently encode.
func (s *DistSession) Graph() *graph.Graph { return s.g }

// Procs returns the simulated processor count.
func (s *DistSession) Procs() int { return s.p }

// CacheEvictions returns the cumulative stationary-working-set evictions of
// every rank's bounded operand cache over the session's lifetime (0 unless
// DistOptions.CacheSets bounds the caches). Callers must not race it with
// Run/Patch/ApplyIncremental.
func (s *DistSession) CacheEvictions() int64 {
	total := s.evictBase
	for _, rk := range s.ranks {
		total += rk.cache.Evictions()
	}
	return total
}

// Reset rebuilds the resident operands from newG and drops every cached
// working set, so the next runs pay full redistribution again. It is the
// fallback for vertex-set changes (the operand dimensions move) and the
// full-redistribution oracle the differential tests pin delta-patching
// against (TestSessionPatchMatchesReset). adjCSR may be nil.
func (s *DistSession) Reset(newG *graph.Graph, adjCSR *sparse.CSR[float64]) {
	if adjCSR == nil {
		adjCSR = newG.Adjacency()
	}
	s.install(newG, adjCSR)
}

// Patch transitions the resident operands from the current topology to
// newG, whose edge set must differ from the current graph by exactly
// diffs. Each rank splices only the diff entries it owns into its resident
// blocks — the shard-distributed operands and every plan-specific cached
// working set — leaving each block entry-identical to a full re-staging of
// the new matrix while moving nothing on the simulated machine. The diff
// is globally known, mirroring the generator-replication input convention
// of FromGlobal. Vertex growth changes the operand dimensions and falls
// back to Reset. adjCSR is newG's adjacency (rebuilt when nil).
func (s *DistSession) Patch(newG *graph.Graph, adjCSR *sparse.CSR[float64], diffs []EdgeDiff) {
	if newG.N != s.g.N {
		s.Reset(newG, adjCSR)
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
		rk.pendingFlops += s.patchRank(rk, r, editsA, editsAt)
	}
}

// patchRank splices the adjacency edits into one rank's resident blocks —
// the shard operands and every cached working set — and returns the splice
// work in entry writes. Host callers (Patch) defer that work to the next
// region via pendingFlops; the fused region calls it per rank goroutine and
// charges it directly.
func (s *DistSession) patchRank(rk *distRank, rank int, editsA, editsAt []spgemm.StationaryEdit[float64]) int64 {
	shard := distmat.DistShard(s.p)
	owned := func(i, j int32) bool { return shard.Owner(i, j) == rank }
	rk.aMat.Local = spgemm.Splice(rk.aMat.Local, editsA, owned)
	rk.atMat.Local = spgemm.Splice(rk.atMat.Local, editsAt, owned)
	ops := int64(len(rk.aMat.Local) + len(rk.atMat.Local))
	ops += spgemm.PatchStationary(rk.cache, rank, rk.aMat.ID(), editsA)
	ops += spgemm.PatchStationary(rk.cache, rank, rk.atMat.ID(), editsAt)
	return ops
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
// Stationary working sets staged by earlier runs of this session are warm
// cache hits: only the frontier matrices move.
func (s *DistSession) Run(sources []int32) (*DistResult, error) {
	return s.RunCtx(context.Background(), sources)
}

// RunCtx is Run with trace propagation: when ctx carries an obs span, the
// region's modeled-vs-measured stats are attached as a machine.region
// child span with one grandchild per attributed phase.
func (s *DistSession) RunCtx(ctx context.Context, sources []int32) (*DistResult, error) {
	nb := Options{Batch: s.opt.Batch}.batchFor(s.g.N)
	if sources != nil && len(sources) < nb {
		nb = len(sources)
	}
	return s.run(ctx, sources, nb)
}

// run executes one simulated-machine region over the resident operands.
func (s *DistSession) run(ctx context.Context, sources []int32, nb int) (*DistResult, error) {
	if err := CheckSources(s.g.N, sources); err != nil {
		return nil, err
	}
	mach := transportFor(s.p, s.opt)
	pl := s.planner(mach, s.g)
	out, err := sweepRegion(s, mach, scalarAlgebra(), []planner{pl}, []*sparse.CSR[float64]{s.adjCSR}, [][]bool{nil}, sources, nb,
		func(_ *machine.Proc, rk *distRank) (a, at *distmat.Mat[float64]) { return rk.aMat, rk.atMat })
	if err != nil {
		return nil, err
	}
	recordRegionSpan(ctx, "run", s.p, out)
	// The representative plan reported back: the one a typical frontier
	// product gets (individual operations may choose differently).
	plan := pl.planFor(nb, int64(float64(nb)*s.g.AvgDegree()), multpathBytes)
	return &DistResult{BC: out.bc, Plan: plan, Stats: out.stats, Iterations: out.iters, Batches: out.batches}, nil
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
	// rules (screenAgainst, maskAgainst) dropped before the kernel folded
	// them, over the ranks this process hosts.
	products, screened atomic.Int64
}

// sweepRegion runs one machine region of batched MFBF/MFBr sweeps — the
// body shared by Run (one side over the resident operands) and
// ApplyIncremental (two sides over the staged pair operands). Side s
// sweeps the sources of the batch list that in[s] admits, seeded from
// adj[s] and planned by pls[s]; stage yields each rank's stationary
// operands A and Aᵀ once its deferred patch work has been charged.
func sweepRegion[M multSided[M], C centSided[C], W any](
	s *DistSession, mach machine.Transport, alg sweepAlgebra[M, C, W],
	pls []planner, adj []*sparse.CSR[float64], in [][]bool, sources []int32, nb int,
	stage func(*machine.Proc, *distRank) (a, at *distmat.Mat[W]),
) (*regionOutcome, error) {
	n := s.g.N
	out := &regionOutcome{bc: make([]float64, len(pls)*n)}
	stats, err := mach.Run(func(proc *machine.Proc) {
		world := proc.World()
		rk := s.ranks[proc.Rank()]
		sp := &sidePlans{sess: spgemm.NewSessionWithCache(proc, rk.cache), pls: pls, plans: make([]spgemm.Plan, len(pls))}
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
		buf := &sweepBufs[M, C]{index: &rk.index}
		iters, batches := 0, 0
		for _, batch := range batchList(n, nb, sources) {
			batches++
			t, itF := sweepMFBF(sp, buf, alg, a, adj, in, batch)
			z, t, itB := sweepMFBr(sp, buf, alg, at, t)
			iters += itF + itB
			// Accumulate each side under the distribution its own last
			// product left Z in — Z's own at one side, a free no-op whenever
			// the sides agreed on their final plan — so the per-rank partial
			// sums, and with them the rounding of the closing allreduce,
			// group exactly as that side's scalar region would.
			for side, plan := range sp.plans {
				_, _, d := sp.sess.Dists(plan, z.Rows, n, n)
				bc := acc[side*n : (side+1)*n]
				distmat.ZipJoin(distmat.Redistribute(world, z, d, alg.cent), distmat.Redistribute(world, t, d, alg.mult),
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
