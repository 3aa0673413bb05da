// Distributed MFBC: the sequential algorithms of seq.go re-expressed over
// distributed matrices, with every frontier relaxation executed as a
// communication-efficient generalized sparse matrix multiplication
// (internal/spgemm) on the simulated machine. The adjacency matrix and its
// transpose are stationary cached operands, so their placement (including
// 3D fiber replication) is paid once per run and amortized, as in the proof
// of Theorem 5.1.
//
// This file holds the one distributed sweep: Algorithms 1 and 2 and their
// four per-entry rules (two more, optional, screen the forward products and
// mask the backward ones against T inside the multiply), written once over
// sorted entry lists and generic over how many independent sides each entry
// value carries (algebra.Sided).
// One side is the scalar sweep of Run, MFBCDistributed and SSSPDistributed;
// two sides — (old, new) around a graph edit — is the fused incremental
// apply of fused.go. At one side every per-side step degenerates to the
// scalar one: one plan, one multiply, the same collectives and the same
// modeled cost. The rules find T through one dense position table per rank
// (blockIndex), never by searching it. The CSR sweep of seq.go stays a
// separate copy by measurement: routing it through these rules costs the
// sequential kernel about 12 % (ROADMAP, "Not owed": the CSR and entry-list
// sweeps stay two).
package core

import (
	"context"
	"slices"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// DistOptions configures a distributed MFBC run.
type DistOptions struct {
	Procs      int                // processor count (p); with a Transport it must match Transport.Size()
	Workers    int                // per-rank local-kernel parallelism; 0 = fair share of host cores across local ranks, 1 = sequential
	Batch      int                // n_b; ≤0 selects min(n, 128)
	Sources    []int32            // when non-nil, process only this single batch (benchmark mode); BC holds the partial contribution Σ_{s∈Sources} δ(s,·)
	Plan       *spgemm.Plan       // force a decomposition; nil = automatic search
	Constraint spgemm.Constraint  // restrict the automatic search (ablations)
	Model      *machine.CostModel // override the α–β–γ constants
	CacheSets  int                // per-rank stationary-cache bound in working sets per matrix; ≤ 0 = unbounded
	// Transport pins every region of this run/session to an external
	// machine backend (e.g. a tcpnet rank mesh) instead of a fresh
	// simulated machine per region. The caller owns its lifecycle; a Model
	// override is applied to it when set.
	Transport machine.Transport
}

// transportFor returns the machine backend for a region: the persistent
// externally-managed transport when one is configured (rank-per-process
// deployments), else a fresh simulated machine of p ranks.
func transportFor(p int, opt DistOptions) machine.Transport {
	tr := opt.Transport
	if tr == nil {
		tr = sim.New(p)
	}
	if opt.Model != nil {
		tr.SetModel(*opt.Model)
	}
	return tr
}

// DistResult is the outcome of a distributed run.
type DistResult struct {
	BC         []float64
	Plan       spgemm.Plan
	Stats      machine.RunStats
	Iterations int
	Batches    int
}

// multpathBytes and centpathBytes are the wire sizes used for plan costing.
const (
	multpathBytes = 24 // Entry[MultPath]: 2×int32 + float64 + float64
	centpathBytes = 32 // Entry[CentPath]: 2×int32 + float64 + float64 + int64
	weightBytes   = 16 // Entry[float64]
)

// ChoosePlan runs the automatic decomposition search for an MFBC frontier
// multiplication on graph g with p processors and batch nb.
func ChoosePlan(g *graph.Graph, p, nb int, model machine.CostModel, cons spgemm.Constraint) spgemm.Plan {
	nnzAdj := int64(g.AdjacencyNNZ())
	avgDeg := g.AvgDegree()
	pl := planner{
		p: p, n: g.N, adjNNZ: nnzAdj, model: model, cons: cons,
	}
	return pl.planFor(nb, int64(float64(nb)*avgDeg), multpathBytes)
}

// planner mirrors CTF's mapping framework: every multiplication is planned
// individually from the runtime nonzero counts of its operands (§6.2 "for
// each operation, CTF seeks an optimal processor grid"). A forced plan or a
// search constraint applies to all operations. Selection is a pure function
// of globally agreed values, so all processors pick the same plan.
type planner struct {
	p      int
	n      int
	adjNNZ int64
	model  machine.CostModel
	cons   spgemm.Constraint
	forced *spgemm.Plan
}

func (pl planner) planFor(rows int, nnzA int64, bytesA int64) spgemm.Plan {
	if pl.forced != nil {
		return *pl.forced
	}
	pr := spgemm.Problem{
		M: rows, K: pl.n, N: pl.n,
		NNZA:   nnzA,
		NNZB:   pl.adjNNZ,
		BytesA: bytesA,
		BytesB: weightBytes,
		BytesC: bytesA,
	}
	return spgemm.Search(pl.p, pr, pl.model, pl.cons)
}

// MFBCDistributed computes betweenness centrality on the simulated
// distributed machine. It is the one-shot form of a DistSession: operands
// are built, staged, and discarded with the run. Explicit opt.Sources are
// processed as a single batch (benchmark mode); streaming callers that
// want cross-run operand reuse hold a DistSession instead (dyndist.go).
func MFBCDistributed(g *graph.Graph, opt DistOptions) (*DistResult, error) {
	s, err := NewDistSession(g, opt)
	if err != nil {
		return nil, err
	}
	nb := Options{Batch: opt.Batch}.batchFor(g.N)
	if opt.Sources != nil {
		nb = len(opt.Sources)
	}
	return s.run(context.Background(), opt.Sources, nb)
}

// batchList partitions 0..n-1 into batches of nb sources, or chunks the
// explicit source list into nb-sized batches when one is given.
func batchList(n, nb int, explicit []int32) [][]int32 {
	var out [][]int32
	if explicit != nil {
		for lo := 0; lo < len(explicit); lo += nb {
			hi := lo + nb
			if hi > len(explicit) {
				hi = len(explicit)
			}
			out = append(out, explicit[lo:hi])
		}
		return out
	}
	for lo := 0; lo < n; lo += nb {
		hi := lo + nb
		if hi > n {
			hi = n
		}
		sources := make([]int32, 0, hi-lo)
		for s := lo; s < hi; s++ {
			sources = append(sources, int32(s))
		}
		out = append(out, sources)
	}
	return out
}

// sweepAlgebra is what one instantiation of the sweep computes with: the
// frontier (M), centrality (C) and adjacency (W) monoids and the two
// actions. M and C are Sided; W is opaque to the sweep.
type sweepAlgebra[M, C, W any] struct {
	mult algebra.Monoid[M]
	cent algebra.Monoid[C]
	edge algebra.Monoid[W]
	bf   func(M, W) M
	br   func(C, W) C
}

// multSided and centSided constrain the sweep's frontier and centrality
// value types: one multpath (centpath) component per side.
type (
	multSided[M any] interface {
		algebra.Sided[M, algebra.MultPath]
	}
	centSided[C any] interface {
		algebra.Sided[C, algebra.CentPath]
	}
)

func scalarAlgebra() sweepAlgebra[algebra.MultPath, algebra.CentPath, float64] {
	return sweepAlgebra[algebra.MultPath, algebra.CentPath, float64]{
		algebra.MultPathMonoid(), algebra.CentPathMonoid(), algebra.TropicalMonoid(),
		algebra.BFAction, algebra.BrandesAction,
	}
}

func pairAlgebra() sweepAlgebra[algebra.MultPathPair, algebra.CentPathPair, algebra.WeightPair] {
	return sweepAlgebra[algebra.MultPathPair, algebra.CentPathPair, algebra.WeightPair]{
		algebra.MultPathPairMonoid(), algebra.CentPathPairMonoid(), algebra.WeightPairMonoid(),
		algebra.BFActionPair, algebra.BrandesActionPair,
	}
}

// sidePlans is one rank's planning state across a region's sweeps. Every
// multiplication is planned per side, from that side's own live frontier
// count and its own planner — exactly the inputs a scalar region over that
// side alone would use — so each side replays the plan sequence its scalar
// region would have chosen. A side whose frontier has emptied keeps the
// plan (and thereby the output distribution) it ended with.
type sidePlans struct {
	sess  *spgemm.Session
	pls   []planner     // one per side
	plans []spgemm.Plan // each side's latest plan
	split int           // products executed once per side because plans diverged
}

// sideNNZ counts, with one small allreduce, the entries live on each side:
// the frontier sizes per-side scalar sweeps would have measured.
func sideNNZ[T algebra.Sided[T, E], E any](world *machine.Comm, m *distmat.Mat[T], isZero func(E) bool) []int64 {
	var v T
	cnt := make([]int64, v.Sides())
	for _, e := range m.Local {
		for s := range cnt {
			if !isZero(e.V.Side(s)) {
				cnt[s]++
			}
		}
	}
	return machine.Allreduce(world, cnt, func(a, b int64) int64 { return a + b })
}

// sideProject masks a matrix onto side s: entries live there survive with
// every other side zeroed — the operand the scalar sweep of that side
// would multiply.
func sideProject[T algebra.Sided[T, E], E any](m *distmat.Mat[T], s int, zero T, isZero func(E) bool) *distmat.Mat[T] {
	out := &distmat.Mat[T]{Rows: m.Rows, Cols: m.Cols, Dist: m.Dist}
	for _, e := range m.Local {
		if c := e.V.Side(s); !isZero(c) {
			out.Local = append(out.Local, sparse.Entry[T]{I: e.I, J: e.J, V: zero.WithSide(s, c)})
		}
	}
	return out
}

// mulPerSide is one frontier product under per-side plans. It reports false
// (and multiplies nothing) when no side is live, unless all is set, which
// also plans the dead sides. When the live sides agree on a plan — always,
// at one side — a single multiply runs under it, screened or masked by what
// align returns once it has moved the caller's T to the plan's C
// distribution, and the exact componentwise identities make each side
// bit-identical to its scalar product. When they diverge, the frontier is
// projected per side, each projection is multiplied under its own plan, and
// the products are merged in the first live side's distribution: the price
// of replaying every side's scalar plan sequence exactly, paid only on the
// (rare) divergent rounds.
func mulPerSide[T algebra.Sided[T, E], E, W any](
	sp *sidePlans, all bool, bytes int64,
	frontier *distmat.Mat[T], b *distmat.Mat[W], f func(T, W) T,
	mon algebra.Monoid[T], edge algebra.Monoid[W], isZero func(E) bool,
	align func(distmat.Dist) (screen func(i, j int32, v T) bool, mask *spgemm.Mask[T]),
) (*distmat.Mat[T], bool) {
	world := sp.sess.Proc.World()
	nnz := sideNNZ(world, frontier, isZero)
	lead, split := len(nnz)-1, false
	for s := lead; s >= 0; s-- {
		if nnz[s] > 0 || all {
			sp.plans[s] = sp.pls[s].planFor(frontier.Rows, nnz[s], bytes)
		}
		if nnz[s] > 0 {
			split = split || (nnz[lead] > 0 && sp.plans[s] != sp.plans[lead])
			lead = s
		}
	}
	if nnz[lead] == 0 && !all {
		return nil, false
	}
	if !split {
		_, _, dc := sp.sess.Dists(sp.plans[lead], frontier.Rows, frontier.Cols, b.Cols)
		screen, mask := align(dc)
		if mask != nil {
			return spgemm.MultiplyMasked(sp.sess, sp.plans[lead], frontier, b, f, mon, mon, edge, true, mask), true
		}
		return spgemm.Multiply(sp.sess, sp.plans[lead], frontier, b, f, mon, mon, edge, true, screen), true
	}
	sp.split++
	var out *distmat.Mat[T]
	for s := range nnz {
		if nnz[s] == 0 {
			continue
		}
		ext := spgemm.Multiply(sp.sess, sp.plans[s], sideProject(frontier, s, mon.Identity, isZero), b, f, mon, mon, edge, true, nil)
		if out == nil {
			out = ext
		} else {
			out = distmat.EWise(out, distmat.Redistribute(world, ext, out.Dist, mon), mon)
		}
	}
	return out, true
}

// seedFrontier builds a batch's initial T: row i carries, on every side that
// sweeps source batch[i] (in[s] nil = all of them), the source's adjacency
// row on that side with multiplicity 1. Sides meeting at one coordinate are
// merged by FromGlobal's canonicalization.
func seedFrontier[M multSided[M]](zero M, adj []*sparse.CSR[float64], in [][]bool, batch []int32) *sparse.COO[M] {
	init := sparse.NewCOO[M](len(batch), adj[0].Cols)
	for i, src := range batch {
		for s, a := range adj {
			if in[s] != nil && !in[s][src] {
				continue
			}
			cols, vals := a.Row(int(src))
			for k, v := range cols {
				if v != src {
					init.Append(int32(i), v, zero.WithSide(s, algebra.MultPath{W: vals[k], M: 1}))
				}
			}
		}
	}
	return init
}

// sweepBufs is the storage one rank's sweeps reuse across the rounds and
// batches of a region, so that a round allocates in proportion to its
// frontier and not to T: the ping-pong pair T accumulates in, the backward
// frontier's scratch and the Z positions it is collected from, the
// accumulator the backward products fold into by position in T, and the
// rank's position table over its block of T, which outlives the region.
// (Z is folded in place, and the per-round filter and screens compact the
// product they are handed.)
type sweepBufs[M, C any] struct {
	t        distmat.Accumulator[M]
	frontier []sparse.Entry[C]
	ready    []int32
	back     sparse.SPA[sparse.Entry[C]]
	index    *blockIndex
}

// blockIndex is a dense position table over the bounding box of one rank's
// block of T: the cell of (i, j) holds the index in the block of the entry
// there, or −1 when the block holds none. Rebuilding it reuses its storage,
// so a rank that keeps one allocates it once however often T changes. The
// box is the rank's share of the product's C rectangle under stationary-C
// plans, and at most nb × n cells where rows or columns are stage-cyclic.
type blockIndex struct {
	i0, j0     int32
	rows, span int
	pos        []int32 // pos[(i−i0)·span + (j−j0)]
}

// indexBlock rebuilds x over es, a sorted duplicate-free block.
func indexBlock[T any](x *blockIndex, es []sparse.Entry[T]) {
	x.rows, x.span = 0, 0
	if len(es) == 0 {
		return
	}
	j0, j1 := es[0].J, es[0].J
	for _, e := range es {
		j0, j1 = min(j0, e.J), max(j1, e.J)
	}
	x.i0, x.j0 = es[0].I, j0
	x.rows, x.span = int(es[len(es)-1].I-x.i0)+1, int(j1-j0)+1
	x.pos = slices.Grow(x.pos[:0], x.rows*x.span)[:x.rows*x.span]
	for c := range x.pos {
		x.pos[c] = -1
	}
	for k, e := range es {
		x.pos[int(e.I-x.i0)*x.span+int(e.J-j0)] = int32(k)
	}
}

// at returns the index of the entry at (i, j), or −1 when there is none.
func (x *blockIndex) at(i, j int32) int {
	r, c := uint(i-x.i0), uint(j-x.j0)
	if r >= uint(x.rows) || c >= uint(x.span) {
		return -1
	}
	return int(x.pos[int(r)*x.span+int(c)])
}

// sweepMFBF is Algorithm 1 on distributed matrices: every side's frontier
// advances over its component of the adjacency operand a in lock-step. Row
// i of the frontier belongs to source batch[i]; side s is seeded from
// adj[s] for the sources in[s] admits. T starts in the neutral shard
// distribution, built locally from the replicated generator data. The
// returned T lives in buf until the next batch's sweep.
func sweepMFBF[M multSided[M], C, W any](
	sp *sidePlans, buf *sweepBufs[M, C], alg sweepAlgebra[M, C, W], a *distmat.Mat[W],
	adj []*sparse.CSR[float64], in [][]bool, batch []int32,
) (*distmat.Mat[M], int) {
	world := sp.sess.Proc.World()
	t := distmat.FromGlobal(world.Rank(), seedFrontier(alg.mult.Identity, adj, in, batch), distmat.DistShard(world.Size()), alg.mult)
	frontier := t
	// T grows every round, so every multiply re-indexes it.
	align := func(d distmat.Dist) (func(i, j int32, v M) bool, *spgemm.Mask[M]) {
		t = distmat.Redistribute(world, t, d, alg.mult)
		indexBlock(buf.index, t.Local)
		return screenAgainst(t.Local, buf.index), nil
	}
	for iters := 0; ; iters++ {
		ext, ok := mulPerSide(sp, false, multpathBytes, frontier, a, alg.bf, alg.mult, alg.edge, algebra.MultPathIsZero, align)
		if !ok {
			return t, iters
		}
		if iters > t.Cols {
			panic("core: distributed MFBF failed to converge")
		}
		// The product is this round's own: drop the sources' self-paths,
		// and after the merge screen the frontier, both within its storage.
		live := ext.Local[:0]
		for _, e := range ext.Local {
			if e.J != batch[e.I] {
				live = append(live, e)
			}
		}
		t = distmat.Redistribute(world, t, ext.Dist, alg.mult)
		t = &distmat.Mat[M]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: buf.t.Merge(t.Local, live, alg.mult)}
		frontier = &distmat.Mat[M]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: screenFrontierSided(live, t.Local)}
	}
}

// sweepMFBr is Algorithm 2 on distributed matrices. It returns Z, the
// (possibly realigned) T sharing Z's distribution, and the iteration count.
func sweepMFBr[M multSided[M], C centSided[C], W any](
	sp *sidePlans, buf *sweepBufs[M, C], alg sweepAlgebra[M, C, W],
	at *distmat.Mat[W], t *distmat.Mat[M],
) (*distmat.Mat[C], *distmat.Mat[M], int) {
	world := sp.sess.Proc.World()
	// T does not change during the sweep, so it is re-indexed only when it
	// moves to another distribution.
	var indexed *distmat.Mat[M]
	moveT := func(d distmat.Dist) {
		if t = distmat.Redistribute(world, t, d, alg.mult); t != indexed {
			indexBlock(buf.index, t.Local)
			indexed = t
		}
	}
	align := func(d distmat.Dist) (func(i, j int32, v C) bool, *spgemm.Mask[C]) {
		moveT(d)
		return nil, maskAgainst(t.Local, buf.index, &buf.back)
	}
	mul := func(frontier *distmat.Mat[C], all bool) (*distmat.Mat[C], bool) {
		return mulPerSide(sp, all, centpathBytes, frontier, at, alg.br, alg.cent, alg.edge, algebra.CentPathIsZero, align)
	}
	mat := func(d distmat.Dist, local []sparse.Entry[C]) *distmat.Mat[C] {
		return &distmat.Mat[C]{Rows: t.Rows, Cols: t.Cols, Dist: d, Local: local}
	}

	// Child counting: one product of the full T pattern with Aᵀ — much
	// denser than any frontier product, so it gets its own plan. The DAG's
	// leaves, found while Z is built, are the first frontier.
	ones, _ := buildZSided[M, C](t.Local, nil, 1, nil)
	p, _ := mul(mat(t.Dist, ones), true)
	moveT(p.Dist)
	// A pass records each position of T at most once, so |T| bounds ready.
	counts, ready := screenCentSided(p.Local, t.Local, buf.index, slices.Grow(buf.ready[:0], len(t.Local)))
	zl, ready := buildZSided(t.Local, counts, 0, ready[:0])
	z := mat(t.Dist, zl)
	for iters := 0; ; iters++ {
		buf.frontier = collectFrontierSided(buf.frontier[:0], z.Local, t.Local, ready, alg.cent.Identity)
		p, ok := mul(mat(z.Dist, buf.frontier), false)
		if !ok {
			buf.ready = ready
			return z, t, iters
		}
		if iters > t.Cols {
			panic("core: distributed MFBr failed to converge")
		}
		// Keep Z and T aligned with the product's distribution; the
		// positions folded into are where the next frontier can come from.
		moveT(p.Dist)
		z = distmat.Redistribute(world, z, p.Dist, alg.cent)
		var kept []sparse.Entry[C]
		kept, ready = screenCentSided(p.Local, t.Local, buf.index, ready[:0])
		foldInto(z.Local, kept, ready, alg.cent.Op)
	}
}

// The four per-entry rules. Each is a join of a sorted entry slice with
// identically distributed T, decided side by side: whether a component
// survives depends on that side's components alone, so one side's survival
// never resurrects another. A component that does not survive becomes the
// exact zero of its monoid; an entry survives when any component does. The
// two screens compact their first argument — a product the caller owns and
// is done with — in place. The backward rules find T, and Z, which shares
// T's pattern entry for entry, through the rank's blockIndex: one load per
// product, so a round costs what its product costs and not what T does.
//
// Two more rules run inside the multiply, against this rank's block of T,
// before the local kernel folds its products. Both are conservative — a
// strict loser never wins or ties under ⊕ or ⊗, so the fold of the rest,
// and what the four rules keep of it, are bit for bit what they were — and
// optional: T must already be in the product's distribution (the
// redistribution that used to follow the multiply), Multiply honours them
// only under stationary-C plans (elsewhere products are partial, their
// reduction charged by size), and the split-plan branch passes neither. A
// lookup is one load from x, which must index t; the closures only read, so
// the kernel's workers share them.
//
// screenAgainst is the forward product's screen: it drops a product when the
// block holds its coordinate and every side of it loses there. The rest are
// sorted, because a forward product may land where T holds nothing yet.
func screenAgainst[M multSided[M]](t []sparse.Entry[M], x *blockIndex) func(i, j int32, v M) bool {
	return func(i, j int32, v M) bool {
		k := x.at(i, j)
		drop := k >= 0
		for s := 0; drop && s < v.Sides(); s++ {
			drop = multLoses(t[k].V.Side(s), v.Side(s))
		}
		return !drop
	}
}

// maskAgainst is the backward product's mask, folding into acc. A backward
// product that can survive lands on T's pattern (Z shares it), so the mask
// also drops what lands off it, as screenCentSided would, and gives the
// kernel each kept product's position in the block: the products fold
// where they land, and the kernel never sorts them.
func maskAgainst[M multSided[M], C centSided[C]](t []sparse.Entry[M], x *blockIndex, acc *sparse.SPA[sparse.Entry[C]]) *spgemm.Mask[C] {
	slot := func(i, j int32, v C) int {
		k := x.at(i, j)
		if k < 0 {
			return -1
		}
		for s := 0; s < v.Sides(); s++ {
			if !centLoses(t[k].V.Side(s), v.Side(s)) {
				return k
			}
		}
		return -1
	}
	return &spgemm.Mask[C]{Slot: slot, Len: len(t), Acc: acc}
}

// multLoses: a forward product that is zero or strictly heavier than T can
// neither win nor tie under ⊕, whatever else the round produces there.
func multLoses(t, v algebra.MultPath) bool { return algebra.MultPathIsZero(v) || t.W < v.W }

// centLoses: a backward product (the child count's or a round's) strictly
// lighter than T — a dead one weighs −∞ — is off the shortest-path DAG: ⊗
// discards it against one that is on it, or leaves a fold screenCentSided drops.
func centLoses(t algebra.MultPath, v algebra.CentPath) bool { return v.W < t.W }

// seek advances y to t's first entry not before e and reports whether that
// entry sits at e's coordinate.
func seek[T, U any](t []sparse.Entry[T], y int, e sparse.Entry[U]) (int, bool) {
	for y < len(t) && (t[y].I < e.I || (t[y].I == e.I && t[y].J < e.J)) {
		y++
	}
	return y, y < len(t) && t[y].I == e.I && t[y].J == e.J
}

// screenFrontierSided keeps the extension components whose weight matches the
// accumulated T at the same coordinate.
func screenFrontierSided[M multSided[M]](ext, t []sparse.Entry[M]) []sparse.Entry[M] {
	out := ext[:0]
	y, hit := 0, false
	for _, e := range ext {
		if y, hit = seek(t, y, e); !hit {
			continue
		}
		live := false
		for s := 0; s < e.V.Sides(); s++ {
			es := e.V.Side(s)
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if !algebra.MultPathIsZero(es) && t[y].V.Side(s).W == es.W && es.M > 0 {
				live = true
			} else {
				e.V = e.V.WithSide(s, algebra.MultPathZero())
			}
		}
		if live {
			out = append(out, e)
		}
	}
	return out
}

// screenCentSided keeps the centpath components matching T's weight at the
// same coordinate, appending to where the position in t (x indexes t) of
// each entry it keeps. A dead T component carries weight +∞ and a dead centpath
// component −∞, so the equality test alone screens liveness.
func screenCentSided[C centSided[C], M multSided[M]](p []sparse.Entry[C], t []sparse.Entry[M], x *blockIndex, where []int32) ([]sparse.Entry[C], []int32) {
	out := p[:0]
	for _, e := range p {
		k := x.at(e.I, e.J)
		if k < 0 {
			continue
		}
		live := false
		for s := 0; s < e.V.Sides(); s++ {
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if t[k].V.Side(s).W == e.V.Side(s).W {
				live = true
			} else {
				e.V = e.V.WithSide(s, algebra.CentPathZero())
			}
		}
		if live {
			out = append(out, e)
			where = append(where, int32(k))
		}
	}
	return out, where
}

// buildZSided lifts the T pattern to centpaths: every live T component appears
// as (T.w, 0, c) with c its screened child count — the number of its
// shortest-path-DAG children — plus base. It appends to leaves the position
// of every entry with a live component whose c is 0.
func buildZSided[M multSided[M], C centSided[C]](t []sparse.Entry[M], counts []sparse.Entry[C], base int64, leaves []int32) ([]sparse.Entry[C], []int32) {
	out := make([]sparse.Entry[C], 0, len(t))
	y, hit := 0, false
	for k, e := range t {
		y, hit = seek(counts, y, e)
		var v C
		leaf := false
		for s := 0; s < e.V.Sides(); s++ {
			c := algebra.CentPathZero()
			if ts := e.V.Side(s); !algebra.MultPathIsZero(ts) {
				c = algebra.CentPath{W: ts.W, C: base}
				if hit {
					c.C += counts[y].V.Side(s).C // a dead counts component has C = 0
				}
				leaf = leaf || c.C == 0
			}
			v = v.WithSide(s, c)
		}
		out = append(out, sparse.Entry[C]{I: e.I, J: e.J, V: v})
		if leaf {
			leaves = append(leaves, int32(k))
		}
	}
	return out, leaves
}

// foldInto accumulates the screened product p into Z where it stands: p[n]
// at Z's position where[n], as screenCentSided found it in T, whose pattern
// Z shares. ⊗ of a live Z entry is never zero, so this is the union merge
// Z ⊗ p without rebuilding Z.
func foldInto[C any](z, p []sparse.Entry[C], where []int32, op func(C, C) C) {
	for n, e := range p {
		z[where[n]].V = op(z[where[n]].V, e.V)
	}
}

// collectFrontierSided appends to out the components at Z's positions ready
// whose counter is zero, emitting (T.w, ζ + 1/σ̄, −1) beside zero for the
// sides not emitting and marking them done in place. Z and T share one
// pattern, so index k addresses the same coordinate in both. A counter
// reaches zero only where Z is built or folded into, so ready lists the leaves
// of buildZSided on the first round and the positions the last round folded
// into after that, in increasing order: Z is never scanned whole.
func collectFrontierSided[C centSided[C], M multSided[M]](out, z []sparse.Entry[C], t []sparse.Entry[M], ready []int32, zero C) []sparse.Entry[C] {
	sides := zero.Sides()
	for _, k := range ready {
		emit := false
		for s := 0; s < sides; s++ {
			zs := z[k].V.Side(s)
			if algebra.CentPathIsZero(zs) || zs.C != 0 {
				continue
			}
			if !emit {
				out = append(out, sparse.Entry[C]{I: z[k].I, J: z[k].J, V: zero})
				emit = true
			}
			e := &out[len(out)-1]
			e.V = e.V.WithSide(s, algebra.CentPath{W: zs.W, P: zs.P + 1/t[k].V.Side(s).M, C: -1})
			zs.C = -1
			z[k].V = z[k].V.WithSide(s, zs)
		}
	}
	return out
}
