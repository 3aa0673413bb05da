// Distributed MFBC: the sequential algorithms of seq.go re-expressed over
// distributed matrices, with every frontier relaxation executed as a
// communication-efficient generalized sparse matrix multiplication
// (internal/spgemm) on the simulated machine. The adjacency matrix and its
// transpose are stationary operands (spgemm.Stationary), so their placement
// (including 3D fiber replication) is paid once per run and amortized, as
// in the proof of Theorem 5.1.
//
// This file holds the one distributed sweep of Run and MFBCDistributed:
// Algorithms 1 and 2 and their four per-entry rules (two more form each
// sweep's products against T inside the multiply — the backward one
// keeping only the edges of T's shortest-path DAG, by the sum the forward
// sweep formed), written once over sorted entry lists of the paper's two
// monoids, one scalar multpath or centpath per entry (§4). The streaming
// engine does not run this sweep: it sweeps by source with the CSR kernel
// (fused.go). The rules find T through one dense position table per rank
// (blockIndex), never by searching it. The CSR sweep of seq.go stays a
// separate copy by measurement: routing it through these rules costs the
// sequential kernel about 12 % (ROADMAP, "Not owed": the CSR and
// entry-list sweeps stay two).
package core

import (
	"context"
	"math"
	"math/bits"
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
	// searches per operation; Constraint restricts that search. One
	// exception: on weights whose path sums are inexact (not all multiples
	// of one power of two), a forced plan that runs no screen
	// (spgemm.Plan.Screens) plans the forward products only, and the
	// backward ones are searched among the plans that screen.
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
	BC []float64
	// Plan is the plan a typical frontier product of the run gets, and
	// BackPlan the plan the same product gets as a backward one: the same
	// plan, except where backward products are planned apart — among the
	// plans that screen, on weights whose sums are inexact (planFor), a
	// forced plan that runs no screen included.
	Plan, BackPlan spgemm.Plan
	Stats          machine.RunStats
	Iterations     int
	Batches        int
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
	return pl.planFor(nil, nb, int64(float64(nb)*avgDeg), multpathBytes, false)
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
	exact  bool // the adjacency's path sums are exact (exactSums)
}

// planFor returns the plan of a rows-row frontier product with nnzA
// entries of bytesA wire bytes each, a backward one when back is set. With
// a memo (nil = none) it looks the search up there first and records what
// it searched. Where no screen runs, ⊖ forms a backward product, which is
// exact only on exact weights: elsewhere a backward product is planned
// among the plans that screen, and a forced plan that does not screen
// plans the forward products only.
func (pl planner) planFor(memo *planMemo, rows int, nnzA, bytesA int64, back bool) spgemm.Plan {
	masked := back && !pl.exact
	if pl.forced != nil && (!masked || pl.forced.Screens()) {
		return *pl.forced
	}
	pr := spgemm.Problem{
		M: rows, K: pl.n, N: pl.n,
		NNZA:     nnzA,
		NNZB:     pl.adjNNZ,
		BytesA:   bytesA,
		BytesB:   weightBytes,
		BytesC:   bytesA,
		Screened: masked,
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

// exactSums reports whether every path sum the sweeps form over the weights
// ws is exact in float64, so that ⊖ undoes the forward sum: every weight is
// a multiple of one 2^e and their total is below 2^(53+e). Integer weights
// and weights on a 2⁻¹⁰ grid pass; ∞ marks an absent edge. The lowest set
// bit of each weight is read from its bits (one place low on a subnormal,
// which only makes the test stricter), so a pass costs about an add per
// weight. A float total reaches 2^(53+e) exactly when the exact one does:
// below it every partial sum is exact, and rounding is monotone.
func exactSums(ws []float64) bool {
	e, total := math.MaxInt, 0.0
	for _, w := range ws {
		if !math.IsInf(w, 1) {
			b := math.Float64bits(w)
			e = min(e, int(b>>52&0x7ff)-1075+bits.TrailingZeros64(b|1<<52))
			total += w
		}
	}
	return e == math.MaxInt || total < math.Ldexp(1, 53+e)
}

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

// planState is one rank's planning state across a region's sweeps: every
// multiplication is planned from its frontier's global entry count, and the
// latest plan (and thereby the output distribution) is kept.
type planState struct {
	sess *spgemm.Session
	pl   planner
	plan spgemm.Plan
	memo *planMemo // the rank's searched plans
}

// mulFrontier is one frontier product, a backward one when back is set,
// planned from the frontier's global entry count (one small allreduce). It
// reports false (and multiplies nothing) when the frontier is empty on
// every rank, unless all is set. The product is screened by what align
// returns once it has moved the caller's T to the plan's C distribution,
// and folds by column into acc.
func mulFrontier[T any](
	sp *planState, all, back bool, bytes int64,
	frontier *distmat.Mat[T], b *spgemm.Stationary[float64], f func(T, float64) T, mon algebra.Monoid[T],
	align func(distmat.Dist) spgemm.Screen[T, float64], acc *spgemm.Accumulator[T],
) (*distmat.Mat[T], bool) {
	nnz := machine.AllreduceScalar(sp.sess.Proc.World(), int64(len(frontier.Local)), func(a, b int64) int64 { return a + b })
	if nnz == 0 && !all {
		return nil, false
	}
	sp.plan = sp.pl.planFor(sp.memo, frontier.Rows, nnz, bytes, back)
	_, _, dc := b.Dists(sp.sess, sp.plan, frontier.Rows)
	return spgemm.Multiply(sp.sess, sp.plan, frontier, b, f, mon, align(dc), acc), true
}

// seedShare writes over dst the rank's share, under the shard distribution
// of p ranks, of a batch's initial T: row i carries the adjacency row of
// source batch[i] with multiplicity 1, less the source's own column. The
// adjacency's rows are sorted, so the share is built in (row, col) order,
// and only the rank's own entries are built: no sort, and no other rank's
// share. adj holds no ∞ weight, so no seed entry is zero.
func seedShare(dst []sparse.Entry[algebra.MultPath], adj *sparse.CSR[float64], batch []int32, rank, p int) []sparse.Entry[algebra.MultPath] {
	out := dst[:0]
	for i, src := range batch {
		row := int32(i)
		cols, ws := adj.Row(int(src))
		for x, j := range cols {
			if j != src && distmat.Shard(row, j, p) == rank {
				out = append(out, sparse.Entry[algebra.MultPath]{I: row, J: j, V: algebra.MultPath{W: ws[x], M: 1}})
			}
		}
	}
	return out
}

// sweepBufs is the storage one rank's sweeps reuse across the rounds and
// batches of a region and across the regions of a session (distRank keeps
// it), so that a round allocates in proportion to its frontier and not to
// T, and a region in proportion to what it newly produces: one rotation
// per matrix (distmat.Accumulator) — T's seed, merges and moves; the
// child-count operand, Z and Z's moves — the headers of the forward
// sweep's T and frontier, the backward frontier's scratch and the Z
// positions it is collected from, the accumulators the screened forward
// and backward products fold into, the rank's current block of T with its
// position table, and the forward screen and the backward mask, built once
// over those two (screens). Each step of a sweep reads only its matrix's
// newest result, so the rotation never writes over what a step reads.
// Every batch writes over what the last one left: each use starts its
// slice at length 0. (Z is folded in place, and the per-round filter and
// screens compact the product they are handed.)
type sweepBufs struct {
	t        distmat.Accumulator[algebra.MultPath]
	z        distmat.Accumulator[algebra.CentPath]
	tm, fm   distmat.Mat[algebra.MultPath] // the forward sweep's T and frontier
	frontier []sparse.Entry[algebra.CentPath]
	ready    []int32
	fwd      spgemm.Accumulator[algebra.MultPath]
	back     spgemm.Accumulator[algebra.CentPath]
	block    []sparse.Entry[algebra.MultPath]
	index    blockIndex
	screen   spgemm.Screen[algebra.MultPath, float64]
	mask     spgemm.Screen[algebra.CentPath, float64]
}

// indexT makes es the block of T the screens and the backward rules read.
func (b *sweepBufs) indexT(es []sparse.Entry[algebra.MultPath]) {
	b.block = es
	indexBlock(&b.index, es)
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

// sweepMFBF is Algorithm 1 on distributed matrices: the frontier advances
// over the adjacency operand a. Row i of the frontier belongs to source
// batch[i]. T starts in the neutral shard distribution, each rank seeding
// its own share straight from the replicated adjacency rows (seedShare)
// into T's rotation. Each round writes T's and the frontier's headers over
// buf's, once the multiply has read the last ones. The returned T lives in
// buf until the next batch's sweep.
func sweepMFBF(sp *planState, buf *sweepBufs, a *spgemm.Stationary[float64], adj *sparse.CSR[float64], batch []int32) (*distmat.Mat[algebra.MultPath], int) {
	world := sp.sess.Proc.World()
	p := world.Size()
	mult := algebra.MultPathMonoid()
	screen, _ := buf.screens()
	buf.tm = distmat.Mat[algebra.MultPath]{Rows: len(batch), Cols: adj.Cols, Dist: distmat.DistShard(p),
		Local: buf.t.Rotate(seedShare(buf.t.Spare(), adj, batch, world.Rank(), p))}
	t := &buf.tm
	frontier := t
	// T grows every round, so every multiply re-indexes it.
	align := func(d distmat.Dist) spgemm.Screen[algebra.MultPath, float64] {
		t = buf.t.Move(world, t, d)
		buf.indexT(t.Local)
		return screen
	}
	for iters := 0; ; iters++ {
		ext, ok := mulFrontier(sp, false, false, multpathBytes, frontier, a, algebra.BFAction, mult, align, &buf.fwd)
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
		buf.tm = distmat.Mat[algebra.MultPath]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: buf.t.Merge(t.Local, live, mult)}
		t = &buf.tm
		buf.fm = distmat.Mat[algebra.MultPath]{Rows: t.Rows, Cols: t.Cols, Dist: t.Dist, Local: screenFrontier(live, t.Local)}
		frontier = &buf.fm
	}
}

// sweepMFBr is Algorithm 2 on distributed matrices. It returns Z, the
// (possibly realigned) T sharing Z's distribution, and the iteration count.
func sweepMFBr(sp *planState, buf *sweepBufs, at *spgemm.Stationary[float64], t *distmat.Mat[algebra.MultPath]) (*distmat.Mat[algebra.CentPath], *distmat.Mat[algebra.MultPath], int) {
	world := sp.sess.Proc.World()
	cent := algebra.CentPathMonoid()
	_, mask := buf.screens()
	// T does not change during the sweep, so it is re-indexed only when it
	// moves to another distribution.
	var indexed *distmat.Mat[algebra.MultPath]
	moveT := func(d distmat.Dist) {
		if t = buf.t.Move(world, t, d); t != indexed {
			buf.indexT(t.Local)
			indexed = t
		}
	}
	align := func(d distmat.Dist) spgemm.Screen[algebra.CentPath, float64] {
		moveT(d)
		return mask
	}
	mul := func(frontier *distmat.Mat[algebra.CentPath], all bool) (*distmat.Mat[algebra.CentPath], bool) {
		return mulFrontier(sp, all, true, centpathBytes, frontier, at, algebra.BrandesAction, cent, align, &buf.back)
	}
	mat := func(d distmat.Dist, local []sparse.Entry[algebra.CentPath]) *distmat.Mat[algebra.CentPath] {
		return &distmat.Mat[algebra.CentPath]{Rows: t.Rows, Cols: t.Cols, Dist: d, Local: local}
	}

	// Child counting: one product of the full T pattern with Aᵀ — much
	// denser than any frontier product, so it gets its own plan. The DAG's
	// leaves, found while Z is built, are the first frontier.
	ones, _ := buildZ(buf.z.Spare(), t.Local, nil, 1, nil)
	p, _ := mul(mat(t.Dist, buf.z.Rotate(ones)), true)
	moveT(p.Dist)
	// A pass records each position of T at most once, so |T| bounds ready.
	counts, ready := screenCent(p.Local, t.Local, &buf.index, slices.Grow(buf.ready[:0], len(t.Local)))
	zs, ready := buildZ(buf.z.Spare(), t.Local, counts, 0, ready[:0])
	z := mat(t.Dist, buf.z.Rotate(zs))
	for iters := 0; ; iters++ {
		buf.frontier = collectFrontier(buf.frontier[:0], z.Local, t.Local, ready)
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
		z = buf.z.Move(world, z, p.Dist)
		var kept []sparse.Entry[algebra.CentPath]
		kept, ready = screenCent(p.Local, t.Local, &buf.index, ready[:0])
		foldInto(z.Local, kept, ready, cent.Op)
	}
}

// The four per-entry rules. Each is a join of a sorted entry slice with
// identically distributed T, one scalar multpath or centpath per entry: an
// entry that does not survive is dropped. The two screens compact their
// first argument — a product the caller owns and is done with — in place.
// The backward rules find T, and Z, which shares T's pattern entry for
// entry, through the rank's blockIndex: one load per product, so a round
// costs what its product costs and not what T does.
//
// Two more rules, one per sweep, are the screens Multiply runs in place of
// the action wherever the plan lets a screen run (spgemm.Plan.Screens):
// each forms its product against this rank's block of T, which must
// already be in the product's distribution, and says whether to fold it.
// A lookup is one load from the position table the sweep's buffers keep
// current (sweepBufs.indexT); the screens only read, so the kernel's
// workers share them. The buffers build the pair once (sweepBufs.screens).
//
// The forward screen extends a path by its edge and drops the extension
// when T holds its coordinate and the extension is zero or strictly
// heavier there. That is conservative: a strict loser neither wins nor
// ties under ⊕, so the merge and screenFrontier keep what they kept
// without it. A product where T holds nothing yet is a new path, and kept.
//
// The backward mask is the sweep's one test of the shortest-path DAG,
// tight: a child's centpath crosses an edge back to its parent only where
// the forward sweep formed the child's T weight as the parent's plus the
// edge, and it arrives at the parent's T weight, which screenCent's test
// then matches. What misses, and what lands off the block (Z shares T's
// pattern), is dropped. Where no screen runs, ⊖ forms the product and
// screenCent's weight test decides, which is exact only on weights whose
// path sums are (exactSums). So on inexact weights a backward product is
// planned among the plans that screen (planFor).

// tight is the backward mask's test: the child's centpath a =
// (T(s,u).w, ζ, c) reaches its parent v over an edge of weight w when
// T(s,v).w + w = T(s,u).w, the sum the forward relaxation formed — exact on
// any weights, as Brandes' own test is. It returns a's factor and counter
// at weight tw = T(s,v).w, or the exact zero. A dead T entry (tw = +∞), a
// dead child (a.W = −∞) and an absent edge (w = +∞) all miss.
func tight(tw, w float64, a algebra.CentPath) algebra.CentPath {
	//lint:allow floateq the forward sweep formed T(s,u).w as exactly this sum
	if tw+w == a.W {
		return algebra.CentPath{W: tw, P: a.P, C: a.C}
	}
	return algebra.CentPathZero()
}

// multLoses: a forward product that is zero or strictly heavier than T can
// neither win nor tie under ⊕, whatever else the round produces there.
func multLoses(t, v algebra.MultPath) bool { return algebra.MultPathIsZero(v) || t.W < v.W }

// screens returns the forward screen and the backward mask over b's block
// of T, built on the first call and kept with b.
func (b *sweepBufs) screens() (spgemm.Screen[algebra.MultPath, float64], spgemm.Screen[algebra.CentPath, float64]) {
	if b.screen == nil {
		b.screen = func(i, j int32, a algebra.MultPath, w float64) (algebra.MultPath, bool) {
			v := algebra.BFAction(a, w)
			k := b.index.at(i, j)
			return v, k < 0 || !multLoses(b.block[k].V, v)
		}
		b.mask = func(i, j int32, a algebra.CentPath, w float64) (algebra.CentPath, bool) {
			if k := b.index.at(i, j); k >= 0 {
				v := tight(b.block[k].V.W, w, a)
				return v, !algebra.CentPathIsZero(v)
			}
			return a, false
		}
	}
	return b.screen, b.mask
}

// seek advances y to t's first entry not before e and reports whether that
// entry sits at e's coordinate.
func seek[T, U any](t []sparse.Entry[T], y int, e sparse.Entry[U]) (int, bool) {
	for y < len(t) && (t[y].I < e.I || (t[y].I == e.I && t[y].J < e.J)) {
		y++
	}
	return y, y < len(t) && t[y].I == e.I && t[y].J == e.J
}

// screenFrontier keeps the extensions whose weight matches the accumulated
// T at the same coordinate.
func screenFrontier(ext, t []sparse.Entry[algebra.MultPath]) []sparse.Entry[algebra.MultPath] {
	out := ext[:0]
	y, hit := 0, false
	for _, e := range ext {
		if y, hit = seek(t, y, e); !hit {
			continue
		}
		//lint:allow floateq screening requires an exact match of bit-identically replicated weights
		if !algebra.MultPathIsZero(e.V) && t[y].V.W == e.V.W && e.V.M > 0 {
			out = append(out, e)
		}
	}
	return out
}

// screenCent keeps the centpaths matching T's weight at the same
// coordinate, appending to where the position in t (x indexes t) of each
// entry it keeps. A dead T entry carries weight +∞ and a dead centpath −∞,
// so the equality test alone screens liveness. A centpath the mask formed
// carries T's weight already; one ⊖ formed is tested here, which is exact
// only on weights whose path sums are (exactSums).
func screenCent(p []sparse.Entry[algebra.CentPath], t []sparse.Entry[algebra.MultPath], x *blockIndex, where []int32) ([]sparse.Entry[algebra.CentPath], []int32) {
	out := p[:0]
	for _, e := range p {
		//lint:allow floateq screening requires an exact match of bit-identically replicated weights
		if k := x.at(e.I, e.J); k >= 0 && t[k].V.W == e.V.W {
			out = append(out, e)
			where = append(where, int32(k))
		}
	}
	return out, where
}

// buildZ lifts the T pattern to centpaths, written over dst (dst[:0],
// grown as needed): every live T entry appears as (T.w, 0, c) with c its
// screened child count — the number of its shortest-path-DAG children —
// plus base, and a dead one as the zero. It appends to leaves the position
// of every live entry whose c is 0.
func buildZ(dst []sparse.Entry[algebra.CentPath], t []sparse.Entry[algebra.MultPath], counts []sparse.Entry[algebra.CentPath], base int64, leaves []int32) ([]sparse.Entry[algebra.CentPath], []int32) {
	out := slices.Grow(dst[:0], len(t))
	y, hit := 0, false
	for k, e := range t {
		y, hit = seek(counts, y, e)
		c := algebra.CentPathZero()
		if !algebra.MultPathIsZero(e.V) {
			c = algebra.CentPath{W: e.V.W, C: base}
			if hit {
				c.C += counts[y].V.C // a dead count has C = 0
			}
			if c.C == 0 {
				leaves = append(leaves, int32(k))
			}
		}
		out = append(out, sparse.Entry[algebra.CentPath]{I: e.I, J: e.J, V: c})
	}
	return out, leaves
}

// foldInto accumulates the screened product p into Z where it stands: p[n]
// at Z's position where[n], as screenCent found it in T, whose pattern Z
// shares. ⊗ of a live Z entry is never zero, so this is the union merge
// Z ⊗ p without rebuilding Z.
func foldInto[C any](z, p []sparse.Entry[C], where []int32, op func(C, C) C) {
	for n, e := range p {
		z[where[n]].V = op(z[where[n]].V, e.V)
	}
}

// collectFrontier appends to out the live entries at Z's positions ready
// whose counter is zero, emitting (T.w, ζ + 1/σ̄, −1) and marking them
// done in place. Z and T share one pattern, so index k addresses the same
// coordinate in both. A counter reaches zero only where Z is built or
// folded into, so ready lists the leaves of buildZ on the first round and
// the positions the last round folded into after that, in increasing
// order: Z is never scanned whole.
func collectFrontier(out, z []sparse.Entry[algebra.CentPath], t []sparse.Entry[algebra.MultPath], ready []int32) []sparse.Entry[algebra.CentPath] {
	for _, k := range ready {
		zk := &z[k]
		if algebra.CentPathIsZero(zk.V) || zk.V.C != 0 {
			continue
		}
		out = append(out, sparse.Entry[algebra.CentPath]{I: zk.I, J: zk.J, V: algebra.CentPath{W: zk.V.W, P: zk.V.P + 1/t[k].V.M, C: -1}})
		zk.V.C = -1
	}
	return out
}
