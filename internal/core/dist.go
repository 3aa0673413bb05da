// Distributed MFBC: the sequential algorithms of seq.go re-expressed over
// distributed matrices, with every frontier relaxation executed as a
// communication-efficient generalized sparse matrix multiplication
// (internal/spgemm) on the simulated machine. The adjacency matrix and its
// transpose are stationary operands (spgemm.Stationary), so their placement
// (including 3D fiber replication) is paid once per run and amortized, as
// in the proof of Theorem 5.1.
//
// This file holds the one distributed sweep: Algorithms 1 and 2 and their
// four per-entry rules (two more, optional, screen each sweep's products
// against T inside the multiply — the backward one masking them by T's
// pattern), written once over sorted entry lists and generic over how many
// independent sides each entry value carries (algebra.Sided).
// One side is the scalar sweep of Run and MFBCDistributed; two sides —
// (old, new) around a graph edit — is the fused incremental
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
	"unsafe"

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
	Procs   int     // processor count (p); with a Transport it must match Transport.Size()
	Workers int     // per-rank local-kernel parallelism; 0 = fair share of host cores across local ranks, 1 = sequential
	Batch   int     // n_b; ≤0 selects min(n, 128)
	Sources []int32 // when non-nil, sweep only these, in Batch-sized chunks; BC holds the partial contribution Σ_{s∈Sources} δ(s,·)
	// Plan and Constraint are the paper's decomposition ablations (§7,
	// Table 3): Plan forces one decomposition for every multiplication, nil
	// searches per operation; Constraint restricts that search.
	Plan       *spgemm.Plan
	Constraint spgemm.Constraint
	// Transport pins every region of this run/session to an external
	// machine backend (e.g. a tcpnet rank mesh) instead of a fresh
	// simulated machine per region. The caller owns its lifecycle.
	Transport machine.Transport
}

// transportFor returns the machine backend for a region: the persistent
// externally-managed transport when one is configured (rank-per-process
// deployments), else a fresh simulated machine of p ranks.
func transportFor(p int, opt DistOptions) machine.Transport {
	if opt.Transport != nil {
		return opt.Transport
	}
	return sim.New(p)
}

// DistResult is the outcome of a distributed run.
type DistResult struct {
	BC         []float64
	Plan       spgemm.Plan
	Stats      machine.RunStats
	Iterations int
	Batches    int
}

// The wire sizes used for plan costing: an entry's memory image, which is
// what the machine codec sends.
const (
	multpathBytes = int64(unsafe.Sizeof(sparse.Entry[algebra.MultPath]{}))
	centpathBytes = int64(unsafe.Sizeof(sparse.Entry[algebra.CentPath]{}))
	weightBytes   = int64(unsafe.Sizeof(sparse.Entry[float64]{}))
)

// ChoosePlan runs the automatic decomposition search for an MFBC frontier
// multiplication on graph g with p processors and batch nb.
func ChoosePlan(g *graph.Graph, p, nb int, model machine.CostModel, cons spgemm.Constraint) spgemm.Plan {
	nnzAdj := int64(g.AdjacencyNNZ())
	avgDeg := g.AvgDegree()
	pl := planner{
		p: p, n: g.N, adjNNZ: nnzAdj, model: model, cons: cons,
	}
	return pl.planFor(nil, nb, int64(float64(nb)*avgDeg), multpathBytes)
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

// planFor returns the plan of a rows-row frontier product with nnzA
// entries of bytesA wire bytes each. With a memo (nil = none) it looks the
// search up there first and records what it searched.
func (pl planner) planFor(memo *planMemo, rows int, nnzA int64, bytesA int64) spgemm.Plan {
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
	if memo == nil {
		return spgemm.Search(pl.p, pr, pl.model, pl.cons)
	}
	key := planKey{pl.p, pr, pl.model, pl.cons}
	plan, ok := (*memo)[key]
	if !ok {
		if *memo == nil || len(*memo) >= maxMemoPlans {
			*memo = make(planMemo)
		}
		plan = spgemm.Search(pl.p, pr, pl.model, pl.cons)
		(*memo)[key] = plan
	}
	return plan
}

// planMemo holds the plans one rank has searched for, keyed on everything
// spgemm.Search reads, so a hit is the plan the search would return and a
// rank that keeps one across regions searches each problem once. Frontier
// sizes make the problems of a long session unbounded in number, so a memo
// that reaches maxMemoPlans starts over.
type planMemo map[planKey]spgemm.Plan

type planKey struct {
	p     int
	pr    spgemm.Problem
	model machine.CostModel
	cons  spgemm.Constraint
}

const maxMemoPlans = 1 << 12

// MFBCDistributed computes betweenness centrality on the simulated
// distributed machine. It is the one-shot form of a DistSession: operands
// are built, staged, and discarded with the run, and explicit opt.Sources
// are swept in Batch-sized chunks as Run sweeps them; streaming callers
// that want cross-run operand reuse hold a DistSession instead
// (dyndist.go).
func MFBCDistributed(g *graph.Graph, opt DistOptions) (*DistResult, error) {
	s, err := NewDistSession(g, opt)
	if err != nil {
		return nil, err
	}
	return s.RunCtx(context.Background(), opt.Sources)
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
// frontier (M) and centrality (C) monoids and the two actions on adjacency
// values (W). M and C are Sided; W is opaque to the sweep.
type sweepAlgebra[M, C, W any] struct {
	mult algebra.Monoid[M]
	cent algebra.Monoid[C]
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
		algebra.MultPathMonoid(), algebra.CentPathMonoid(),
		algebra.BFAction, algebra.BrandesAction,
	}
}

func pairAlgebra() sweepAlgebra[algebra.MultPathPair, algebra.CentPathPair, algebra.WeightPair] {
	return sweepAlgebra[algebra.MultPathPair, algebra.CentPathPair, algebra.WeightPair]{
		algebra.MultPathPairMonoid(), algebra.CentPathPairMonoid(),
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
	memo  *planMemo     // the rank's searched plans
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
// at one side — a single multiply runs under it, screened by what align
// returns once it has moved the caller's T to the plan's C distribution,
// and the exact componentwise identities make each side bit-identical to
// its scalar product. When they diverge, the frontier is projected per
// side, each projection is multiplied under its own plan, unscreened, and
// the products are merged in the first live side's distribution: the price
// of replaying every side's scalar plan sequence exactly, paid only on the
// (rare) divergent rounds. Every product folds by column into acc.
func mulPerSide[T algebra.Sided[T, E], E, W any](
	sp *sidePlans, all bool, bytes int64,
	frontier *distmat.Mat[T], b *spgemm.Stationary[W], f func(T, W) T,
	mon algebra.Monoid[T], isZero func(E) bool,
	align func(distmat.Dist) func(i, j int32, v T) bool, acc *spgemm.Accumulator[T],
) (*distmat.Mat[T], bool) {
	world := sp.sess.Proc.World()
	nnz := sideNNZ(world, frontier, isZero)
	lead, split := len(nnz)-1, false
	for s := lead; s >= 0; s-- {
		if nnz[s] > 0 || all {
			sp.plans[s] = sp.pls[s].planFor(sp.memo, frontier.Rows, nnz[s], bytes)
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
		_, _, dc := b.Dists(sp.sess, sp.plans[lead], frontier.Rows)
		return spgemm.Multiply(sp.sess, sp.plans[lead], frontier, b, f, mon, align(dc), acc), true
	}
	sp.split++
	var out *distmat.Mat[T]
	for s := range nnz {
		if nnz[s] == 0 {
			continue
		}
		ext := spgemm.Multiply(sp.sess, sp.plans[s], sideProject(frontier, s, mon.Identity, isZero), b, f, mon, nil, acc)
		if out == nil {
			out = ext
		} else {
			out = distmat.EWise(out, distmat.Redistribute(world, ext, out.Dist), mon)
		}
	}
	return out, true
}

// seedFrontier builds a batch's initial T: row i carries, on every side, the
// adjacency row of source batch[i] on that side with multiplicity 1. Sides
// meeting at one coordinate are merged by FromGlobal's canonicalization.
func seedFrontier[M multSided[M]](zero M, adj []*sparse.CSR[float64], batch []int32) *sparse.COO[M] {
	init := sparse.NewCOO[M](len(batch), adj[0].Cols)
	for i, src := range batch {
		for s, a := range adj {
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

// sweepBufs is the storage one rank's sweeps of one instantiation reuse
// across the rounds and batches of a region and across the regions of a
// session (distRank keeps it), so that a round allocates in proportion to
// its frontier and not to T, and a region in proportion to what it newly
// produces: the ping-pong pair T accumulates in, Z and the child-count
// operand, the backward frontier's scratch and the Z positions it is
// collected from, the accumulators the screened forward and backward
// products fold into, and the rank's position table over its block of T.
// T and Z move between distributions through storage of their own. Every
// batch writes over what the last one left: each use starts its slice at
// length 0. (Z is folded in place, and the per-round filter and screens
// compact the product they are handed.)
type sweepBufs[M, C any] struct {
	t        distmat.Accumulator[M]
	movedT   moves[M]
	movedZ   moves[C]
	z, ones  []sparse.Entry[C]
	frontier []sparse.Entry[C]
	ready    []int32
	fwd      spgemm.Accumulator[M]
	back     spgemm.Accumulator[C]
	index    blockIndex
}

// moves is the storage one matrix of a sweep is redistributed into
// (distmat.RedistributeInto): two buffers, written alternately, so that a
// move never writes over the matrix it moves when that matrix is where the
// last move left it. Only the last move's result may still be in use.
type moves[T any] struct {
	bufs [2][]sparse.Entry[T]
	next int
}

// move redistributes m to `to`, merging what arrives into the next buffer.
func (mv *moves[T]) move(c *machine.Comm, m *distmat.Mat[T], to distmat.Dist) *distmat.Mat[T] {
	buf := &mv.bufs[mv.next]
	res := distmat.RedistributeInto(c, m, to, buf)
	if len(res.Local) > 0 && len(*buf) > 0 && &res.Local[0] == &(*buf)[0] {
		mv.next ^= 1
	}
	return res
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
// i of the frontier belongs to source batch[i], and side s is seeded from
// adj[s]. T starts in the neutral shard distribution, built locally from
// the replicated generator data. The returned T lives in buf until the next
// batch's sweep.
func sweepMFBF[M multSided[M], C, W any](
	sp *sidePlans, buf *sweepBufs[M, C], alg sweepAlgebra[M, C, W], a *spgemm.Stationary[W],
	adj []*sparse.CSR[float64], batch []int32,
) (*distmat.Mat[M], int) {
	world := sp.sess.Proc.World()
	t := distmat.FromGlobal(world.Rank(), seedFrontier(alg.mult.Identity, adj, batch), distmat.DistShard(world.Size()), alg.mult)
	frontier := t
	// T grows every round, so every multiply re-indexes it.
	align := func(d distmat.Dist) func(i, j int32, v M) bool {
		t = buf.movedT.move(world, t, d)
		indexBlock(&buf.index, t.Local)
		return screenAgainst(t.Local, &buf.index)
	}
	for iters := 0; ; iters++ {
		ext, ok := mulPerSide(sp, false, multpathBytes, frontier, a, alg.bf, alg.mult, algebra.MultPathIsZero, align, &buf.fwd)
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
		t = distmat.Redistribute(world, t, ext.Dist)
		t = &distmat.Mat[M]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: buf.t.Merge(t.Local, live, alg.mult)}
		frontier = &distmat.Mat[M]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: screenFrontierSided(live, t.Local)}
	}
}

// sweepMFBr is Algorithm 2 on distributed matrices. It returns Z, the
// (possibly realigned) T sharing Z's distribution, and the iteration count.
func sweepMFBr[M multSided[M], C centSided[C], W any](
	sp *sidePlans, buf *sweepBufs[M, C], alg sweepAlgebra[M, C, W],
	at *spgemm.Stationary[W], t *distmat.Mat[M],
) (*distmat.Mat[C], *distmat.Mat[M], int) {
	world := sp.sess.Proc.World()
	// T does not change during the sweep, so it is re-indexed only when it
	// moves to another distribution.
	var indexed *distmat.Mat[M]
	moveT := func(d distmat.Dist) {
		if t = buf.movedT.move(world, t, d); t != indexed {
			indexBlock(&buf.index, t.Local)
			indexed = t
		}
	}
	align := func(d distmat.Dist) func(i, j int32, v C) bool {
		moveT(d)
		return maskAgainst[M, C](t.Local, &buf.index)
	}
	mul := func(frontier *distmat.Mat[C], all bool) (*distmat.Mat[C], bool) {
		return mulPerSide(sp, all, centpathBytes, frontier, at, alg.br, alg.cent, algebra.CentPathIsZero, align, &buf.back)
	}
	mat := func(d distmat.Dist, local []sparse.Entry[C]) *distmat.Mat[C] {
		return &distmat.Mat[C]{Rows: t.Rows, Cols: t.Cols, Dist: d, Local: local}
	}

	// Child counting: one product of the full T pattern with Aᵀ — much
	// denser than any frontier product, so it gets its own plan. The DAG's
	// leaves, found while Z is built, are the first frontier.
	buf.ones, _ = buildZSided[M, C](buf.ones, t.Local, nil, 1, nil)
	p, _ := mul(mat(t.Dist, buf.ones), true)
	moveT(p.Dist)
	// A pass records each position of T at most once, so |T| bounds ready.
	counts, ready := screenCentSided(p.Local, t.Local, &buf.index, slices.Grow(buf.ready[:0], len(t.Local)))
	buf.z, ready = buildZSided(buf.z, t.Local, counts, 0, ready[:0])
	z := mat(t.Dist, buf.z)
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
		z = buf.movedZ.move(world, z, p.Dist)
		var kept []sparse.Entry[C]
		kept, ready = screenCentSided(p.Local, t.Local, &buf.index, ready[:0])
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
// Two more rules, one per sweep, are screens that run inside the multiply,
// against this rank's block of T, before the local kernel folds its
// products by column. Both are conservative — a strict loser never wins or
// ties under ⊕ or ⊗, so the fold of the rest, and what the four rules keep
// of it, are bit for bit what they were — and optional: T must already be
// in the product's distribution (the redistribution that used to follow the
// multiply), Multiply honours them only under stationary-C plans (elsewhere
// products are partial, their reduction charged by size), and the
// split-plan branch passes neither. A lookup is one load from x, which must
// index t; the closures only read, so the kernel's workers share them.
//
// Both are asked once per product, so over the one-sided scalar types they
// are closures over those types (scalarScreen, scalarMask), which read the
// one side in place; the pair types keep the per-side loop (sidedScreen,
// sidedMask). The scalar constructors stay out of line: inlined into their
// generic callers, their closures were compiled without the lookup and the
// rule inlined into them.
//
// screenAgainst is the forward product's screen: it drops a product when the
// block holds its coordinate and every side of it loses there. A product
// where T holds nothing yet is a new path, and kept.
func screenAgainst[M multSided[M]](t []sparse.Entry[M], x *blockIndex) func(i, j int32, v M) bool {
	if ts, ok := any(t).([]sparse.Entry[algebra.MultPath]); ok {
		return any(scalarScreen(ts, x)).(func(i, j int32, v M) bool)
	}
	return sidedScreen(t, x)
}

// maskAgainst is the backward product's screen. A backward product that can
// survive lands on T's pattern (Z shares it), so it masks the product by T:
// it drops what lands off the block, as screenCentSided would, and what
// loses on every side there.
func maskAgainst[M multSided[M], C centSided[C]](t []sparse.Entry[M], x *blockIndex) func(i, j int32, v C) bool {
	if ts, ok := any(t).([]sparse.Entry[algebra.MultPath]); ok {
		if keep, ok := any(scalarMask(ts, x)).(func(i, j int32, v C) bool); ok {
			return keep
		}
	}
	return sidedMask[M, C](t, x)
}

func sidedScreen[M multSided[M]](t []sparse.Entry[M], x *blockIndex) func(i, j int32, v M) bool {
	return func(i, j int32, v M) bool {
		k := x.at(i, j)
		drop := k >= 0
		for s := 0; drop && s < v.Sides(); s++ {
			drop = multLoses(t[k].V.Side(s), v.Side(s))
		}
		return !drop
	}
}

func sidedMask[M multSided[M], C centSided[C]](t []sparse.Entry[M], x *blockIndex) func(i, j int32, v C) bool {
	return func(i, j int32, v C) bool {
		k := x.at(i, j)
		if k < 0 {
			return false
		}
		for s := 0; s < v.Sides(); s++ {
			if !centLoses(t[k].V.Side(s), v.Side(s)) {
				return true
			}
		}
		return false
	}
}

//go:noinline
func scalarScreen(t []sparse.Entry[algebra.MultPath], x *blockIndex) func(i, j int32, v algebra.MultPath) bool {
	return func(i, j int32, v algebra.MultPath) bool {
		k := x.at(i, j)
		return k < 0 || !multLoses(t[k].V, v)
	}
}

//go:noinline
func scalarMask(t []sparse.Entry[algebra.MultPath], x *blockIndex) func(i, j int32, v algebra.CentPath) bool {
	return func(i, j int32, v algebra.CentPath) bool {
		k := x.at(i, j)
		return k >= 0 && !centLoses(t[k].V, v)
	}
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

// buildZSided lifts the T pattern to centpaths, written over dst (dst[:0],
// grown as needed): every live T component appears as (T.w, 0, c) with c
// its screened child count — the number of its shortest-path-DAG children
// — plus base. It appends to leaves the position of every entry with a
// live component whose c is 0.
func buildZSided[M multSided[M], C centSided[C]](dst []sparse.Entry[C], t []sparse.Entry[M], counts []sparse.Entry[C], base int64, leaves []int32) ([]sparse.Entry[C], []int32) {
	out := slices.Grow(dst[:0], len(t))
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
