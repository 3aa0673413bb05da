package spgemm

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Session is one processor's handle for distributed multiplications within
// one machine region. Every processor must issue the same plan sequence
// (guaranteed because plan selection is deterministic). The session keeps
// the region's grids; the distributions the rank plans under live in its
// placement cache (placements, on the rank's store), and what it keeps of
// a stationary operand across multiplies and regions lives on the operand
// (Stationary).
type Session struct {
	Proc *machine.Proc
	// Workers is the shared-memory parallelism of this rank's local
	// kernels (stage multiplies, sorts, merges): 0 selects this rank's
	// fair share of the host cores (GOMAXPROCS divided by the world
	// size, at least 1 — all p ranks run concurrently, so giving each
	// rank all cores would oversubscribe the host p-fold), 1 forces the
	// sequential kernels. Parallel kernels produce output identical to
	// their sequential counterparts, so results never depend on this
	// knob.
	Workers int
	// Products counts the products this session's multiplies formed, by f
	// or by a screen, and Screened those the screen rejected; the kernel's
	// workers add.
	Products, Screened atomic.Int64

	grids map[[3]int]*machine.Grid3
}

// workers resolves the Workers knob for this rank; see the field comment.
func (s *Session) workers() int { return parallel.Share(s.Workers, s.Proc.LocalRanks()) }

// NewSession creates a session for this processor.
func NewSession(p *machine.Proc) *Session {
	return &Session{Proc: p, grids: make(map[[3]int]*machine.Grid3)}
}

// grid returns (building on first use) the p1×p2×p3 grid over the world.
func (s *Session) grid(p1, p2, p3 int) *machine.Grid3 {
	key := [3]int{p1, p2, p3}
	if g, ok := s.grids[key]; ok {
		return g
	}
	g := machine.NewGrid3(s.Proc.World(), p1, p2, p3)
	s.grids[key] = g
	return g
}

// ranges holds the layer-local coordinate ranges of one processor: the
// fiber dimension is split across layers, the rest span the full matrix.
type ranges struct {
	m0, m1, k0, k1, n0, n1 int32
}

func layerRanges(plan Plan, m, k, n, layer int) ranges {
	r := ranges{m1: int32(m), k1: int32(k), n1: int32(n)}
	if plan.P1 <= 1 {
		return r
	}
	switch plan.X {
	case RoleA:
		r.n0, r.n1 = distmat.PartBounds(layer, n, plan.P1)
	case RoleB:
		r.m0, r.m1 = distmat.PartBounds(layer, m, plan.P1)
	case RoleC:
		r.k0, r.k1 = distmat.PartBounds(layer, k, plan.P1)
	}
	return r
}

func partIn(x, lo, hi int32, parts int) int { return distmat.Part(x-lo, int(hi-lo), parts) }

// axis is how one coordinate of an operand finds its place on its layer's
// p2×p3 grid: the layer's range of the coordinate's dimension is cut into
// parts contiguous parts, and the coordinate's part, counted modulo mod
// (0 = not wrapped), is its grid row (stride p3) or column (stride 1).
type axis struct{ parts, mod, stride int }

// axes returns the placement of operand role's row and column coordinates
// under plan's layer variant: each operand is blocked over the grid, or
// staged (lcm(p2, p3) stages dealt round the grid) along the dimension the
// variant broadcasts it by.
func axes(plan Plan, role Role) (row, col axis) {
	s := plan.stages()
	rowBlock, colBlock := axis{plan.P2, 0, plan.P3}, axis{plan.P3, 0, 1}
	rowStage, colStage := axis{s, plan.P2, plan.P3}, axis{s, plan.P3, 1}
	var by [3][2]axis // by role: A (i, k), B (k, j), C (i, j)
	switch plan.YZ {
	case VarAB: // A: k staged over p3; B: k staged over p2; C stationary
		by = [3][2]axis{{rowBlock, colStage}, {rowStage, colBlock}, {rowBlock, colBlock}}
	case VarAC: // A: k blocked over p2, m staged over p3; B stationary; C: m staged over p2
		by = [3][2]axis{{colStage, rowBlock}, {rowBlock, colBlock}, {rowStage, colBlock}}
	default: // VarBC: A stationary; B: n staged over p2, k blocked over p3; C: n staged over p3
		by = [3][2]axis{{rowBlock, colBlock}, {colBlock, rowStage}, {rowBlock, colStage}}
	}
	return by[role][0], by[role][1]
}

// axisKey identifies one owner table: a dimension of size coordinates,
// split over layers layers of inner ranks each, and placed by axis.
type axisKey struct {
	size, layers, inner int
	axis
}

// table returns every coordinate's owner term along one dimension: its
// layer's first rank plus its place on the layer grid. The ranges come from
// PartBounds, so filling it costs no division per coordinate.
func (key axisKey) table() []int32 {
	t := make([]int32, key.size)
	for l := 0; l < key.layers; l++ {
		lo, hi := distmat.PartBounds(l, key.size, key.layers)
		at := 0
		for part := 0; part < key.parts; part++ {
			p0, p1 := distmat.PartBounds(part, int(hi-lo), key.parts)
			v := int32(l*key.inner + at*key.stride)
			for x := lo + p0; x < lo+p1; x++ {
				t[x] = v
			}
			if at++; at == key.mod {
				at = 0
			}
		}
	}
	return t
}

// placements is one rank's placement cache, a machine.Scratch on its store:
// the owner tables and the A, B and C distributions of every product shape
// the rank has planned under. Both are pure functions of their keys, so one
// cache serves every operand the rank multiplies, A and Aᵀ alike, for as
// long as the store lives: one region for a one-shot, every region of a
// rank that keeps its store. Frontier row counts make the shapes of a long
// session unbounded in number, so a cache that reaches maxPlacements shapes
// starts over.
type placements struct {
	tables  map[axisKey][]int32
	byShape map[distsKey][3]distmat.Dist
}

// distsKey identifies one multiplication shape under one plan.
type distsKey struct {
	plan    Plan
	m, k, n int
}

const maxPlacements = 1 << 8

// Dists returns the input distributions the plan requires for A and B and
// the output distribution it produces for C, built afresh.
func Dists(plan Plan, m, k, n int) (da, db, dc distmat.Dist) {
	d := new(placements).dists(plan, m, k, n)
	return d[0], d[1], d[2]
}

// dists returns the A, B and C distributions of an m×k by k×n product
// under plan, built on first use.
func (pc *placements) dists(plan Plan, m, k, n int) [3]distmat.Dist {
	key := distsKey{plan, m, k, n}
	if d, ok := pc.byShape[key]; ok {
		return d
	}
	if pc.byShape == nil || len(pc.byShape) >= maxPlacements {
		// Room for the twenty or so tables a region's plans use: a one-shot
		// region's map is allocated once.
		pc.tables, pc.byShape = make(map[axisKey][]int32, 16), make(map[distsKey][3]distmat.Dist)
	}
	d := [3]distmat.Dist{pc.dist(plan, m, k, n, RoleA), pc.dist(plan, m, k, n, RoleB), pc.dist(plan, m, k, n, RoleC)}
	pc.byShape[key] = d
	return d
}

// dist returns the distribution of operand role under plan: the sum of its
// row and column coordinates' table terms. The fiber dimension — n under
// RoleA, m under RoleB, k under RoleC — is split into p1 layer ranges, and
// a coordinate on it carries its layer in its term. The operand a 3D plan
// replicates has no coordinate on it: before replication its entries are
// spread over the layers by a hash of the coordinate pair (the layered
// form). C, reduced under RoleC, sums to its inner grid position on every
// layer, and the reduction root rotates with it (the rotated form).
func (pc *placements) dist(plan Plan, m, k, n int, role Role) distmat.Dist {
	const dimM, dimK, dimN = 0, 1, 2
	size := [3]int{m, k, n}
	dims := [3][2]int{{dimM, dimK}, {dimK, dimN}, {dimM, dimN}}[role]
	split := [3]int{dimN, dimM, dimK}[plan.X]
	p1, inner := plan.P1, plan.P2*plan.P3
	tableOf := func(d int, a axis) []int32 {
		key := axisKey{size: size[d], layers: 1, inner: inner, axis: a}
		if d == split {
			key.layers = max(p1, 1)
		}
		t, ok := pc.tables[key]
		if !ok {
			t = key.table()
			pc.tables[key] = t
		}
		return t
	}
	var o distmat.Owners
	ai, aj := axes(plan, role)
	o.Row, o.Col = tableOf(dims[0], ai), tableOf(dims[1], aj)
	switch {
	case p1 > 1 && role == plan.X && role != RoleC:
		o.Layers, o.Inner = p1, inner
	case p1 > 1 && role == RoleC && plan.X == RoleC:
		o.Rot = make([]int32, inner)
		for q := range o.Rot {
			o.Rot[q] = int32(q%p1*inner + q)
		}
	}
	return distmat.NewDist(plan.Procs(), o)
}

// Screen forms the product of a and b at output coordinate (i, j) and
// reports whether to fold it.
type Screen[TC, TB any] func(i, j int32, a TC, b TB) (TC, bool)

// Multiply computes the generalized product C = A •⟨add,f⟩ B according to
// plan, where A's entries are C's values. B's working set under plan
// (redistributed and, for RoleB plans, fiber-replicated) is staged on b the
// first time, so repeated multiplications against the same stationary
// operand (MFBC's adjacency) pay its movement once. A moves for every
// multiply, into storage the rank reuses (placement, a machine.Scratch), as
// do the stage blocks a rank receives and its stage products and merges: a
// caller whose ranks keep their scratch store across regions multiplies
// without allocating for any of it once that storage has grown.
//
// Where the caller passes acc, every product folds by column, a row at a
// time, into acc's storage, which the caller keeps across products, and
// each row drains in column order: the sorting kernel's output bit for bit,
// without the sort, under every plan. C too is written into acc, as the
// newest result of its rotation (distmat.Accumulator): it stays valid
// through acc's next product and is written over by the one after, so a
// sweep may hold one product while it forms the next, and feed it back as
// the next product's A. Without acc the products are
// sorted, row by row, and C is fresh storage: the kernel of the
// CombBLAS-style baseline, which keeps its own, and of the tests' oracle.
//
// screen (nil = none) runs only where plan.Screens() — where a rank's
// products are final — and only with acc: the sorting kernel keeps every
// product. There it forms every product in place of f, from the operands
// and the output coordinate, and says whether to fold it: a rejected
// product is charged as a flop, then neither folded nor merged. Elsewhere f
// forms every product, so a caller whose screen forms some product
// differently from f must plan its multiply among the plans that screen
// (Problem.Screened). Workers > 1 call the screen from several goroutines
// at once.
func Multiply[TC, TB any](
	s *Session, plan Plan,
	a *distmat.Mat[TC], b *Stationary[TB],
	f func(TC, TB) TC,
	add algebra.Monoid[TC],
	screen Screen[TC, TB], acc *Accumulator[TC],
) *distmat.Mat[TC] {
	if a.Cols != b.m.Rows {
		panic(fmt.Sprintf("spgemm: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.m.Rows, b.m.Cols))
	}
	world := s.Proc.World()
	if plan.Procs() != world.Size() {
		panic(fmt.Sprintf("spgemm: plan %s does not tile %d processors", plan, world.Size()))
	}
	m, k, n := a.Rows, a.Cols, b.m.Cols
	g := s.grid(plan.P1, plan.P2, plan.P3)
	da, db, dc := b.Dists(s, plan, m)
	workers := s.workers()

	// Stage the A operand (moving in every variant) in the rank's placement
	// storage. Replication gathers the fiber's blocks, each sorted and no
	// two sharing a coordinate, and merges them as they arrive.
	place := machine.Scratch[placement[TC, TB]](s.Proc)
	aE := distmat.RedistributeInto(world, a, da, &place.moved)
	if plan.P1 > 1 && plan.X == RoleA {
		place.replicated = replicate(g.Fiber, aE, place.replicated)
		aE = place.replicated
	}

	// Stage the B operand, or find it staged on b.
	sb := b.staged(s, plan, db)

	r := layerRanges(plan, m, k, n, g.MyLayer)
	flt := filter[TC, TB]{acc: acc}
	if plan.Screens() {
		flt.screen = screen
	}
	// C is written over the older of acc's two products, or into fresh
	// storage without acc.
	var c []sparse.Entry[TC]
	if acc != nil {
		c = acc.out.Spare()
	}
	switch plan.YZ {
	case VarAB:
		c = runAB(s, g, plan, r, aE, sb, f, add, workers, flt, place, c)
	case VarAC:
		c = runAC(s, g, plan, r, aE, sb, f, add, workers, flt, place, c)
	default:
		c = runBC(s, g, plan, r, aE, sb, f, add, workers, flt, place, c)
	}

	if plan.P1 > 1 && plan.X == RoleC {
		// Partial C matrices live at the same inner position of every
		// layer; reduce over the fiber to the rotating root layer, which
		// copies the fold, fresh storage, back into c.
		rootLayer := (g.G2.MyR*plan.P3 + g.G2.MyC) % plan.P1
		red := machine.ReduceSlices(g.Fiber, rootLayer, c, func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
			return distmat.MergeSortedParallel(x, y, add, workers)
		})
		c = append(c[:0], red...)
	}
	if acc != nil {
		acc.out.Rotate(c)
	}
	return &distmat.Mat[TC]{Rows: m, Cols: n, Dist: dc, Local: c}
}

// placement is the storage one rank's multiplies of one pair of entry
// types stage and combine their operands in (machine.Scratch): the frontier
// redistributed into the plan's A distribution, its fiber replication under
// RoleA plans and its stage buckets; the A and B stage blocks the rank
// receives from a stage's broadcast root, and the received B block's row
// index; a stage's product, before it is merged or reduced; and the pair
// the stages' products merge in. Each multiply writes over the last one's:
// the placement dies when Multiply returns — its broadcasts' and the fiber
// gather's readers have finished by the closing barrier of their superstep,
// and a C merged here is copied out.
type placement[TC, TB any] struct {
	moved, replicated []sparse.Entry[TC]
	stages            buckets[TC]
	recvA             []sparse.Entry[TC]
	recvB             []sparse.Entry[TB]
	offsB             []int32
	prod              []sparse.Entry[TC]
	merged            distmat.Accumulator[TC]
}

// bcastA broadcasts stage block blk from root over c: the root's own block,
// or a copy of it in the receiver's placement.
func (pl *placement[TC, TB]) bcastA(c *machine.Comm, root int, blk []sparse.Entry[TC]) []sparse.Entry[TC] {
	machine.BcastRecv(c, root, blk, func(in []sparse.Entry[TC]) {
		if c.Rank() != root {
			pl.recvA = append(pl.recvA[:0], in...)
			blk = pl.recvA
		}
	})
	return blk
}

// bcastB broadcasts stage t of b from root over c and returns it with its
// row index over [k0, k1): the root's own block with the index prebuilt on
// it, or a copy of it in the receiver's placement, indexed there.
func (pl *placement[TC, TB]) bcastB(c *machine.Comm, root int, b *stagedB[TB], t int, k0, k1 int32) ([]sparse.Entry[TB], []int32) {
	blk, offs := b.blocks[t], b.offs[t]
	machine.BcastRecv(c, root, blk, func(in []sparse.Entry[TB]) {
		if c.Rank() != root {
			pl.recvB = append(pl.recvB[:0], in...)
			pl.offsB = indexRows(pl.offsB, pl.recvB, k0, k1)
			blk, offs = pl.recvB, pl.offsB
		}
	})
	return blk, offs
}

// replicate gathers the fiber's owner-disjoint sorted blocks into one
// sorted block written over dst (fresh storage when dst is nil), merged
// from the posted blocks. dst must not alias block.
func replicate[T any](fiber *machine.Comm, block, dst []sparse.Entry[T]) []sparse.Entry[T] {
	machine.AllgatherRecv(fiber, block, func(blocks [][]sparse.Entry[T]) { dst = distmat.MergeDisjoint(dst, blocks) })
	return dst
}

// stageBounds returns the absolute [lo, hi) bounds of stage t over the
// range [lo0, hi0) split into s stages.
func stageBounds(t int, lo0, hi0 int32, s int) (int32, int32) {
	lo, hi := distmat.PartBounds(t, int(hi0-lo0), s)
	return lo0 + lo, lo0 + hi
}

// buckets is the storage bucketByStage splits entries into: each entry's
// stage, the buckets' bounds, the buffer they are cut from and their
// headers.
type buckets[T any] struct {
	stage []int32
	end   []int
	buf   []sparse.Entry[T]
	out   [][]sparse.Entry[T]
}

// bucketByStage splits es by stage into storage in, keeping each bucket in
// es's order, and returns the buckets; the next call on in writes over
// them. The single bucket of a one-stage plan is es itself; otherwise one
// counting pass sizes every bucket inside a single buffer, as Redistribute
// sizes its parts.
func bucketByStage[T any](in *buckets[T], es []sparse.Entry[T], s int, stageOf func(sparse.Entry[T]) int) [][]sparse.Entry[T] {
	if s == 1 {
		in.out = append(in.out[:0], es)
		return in.out
	}
	in.stage = slices.Grow(in.stage[:0], len(es))[:len(es)]
	in.end = slices.Grow(in.end[:0], s+1)[:s+1]
	clear(in.end)
	stage, end := in.stage, in.end
	for x, e := range es {
		t := stageOf(e)
		stage[x] = int32(t)
		end[t+1]++
	}
	for t := 0; t < s; t++ {
		end[t+1] += end[t]
	}
	in.buf = slices.Grow(in.buf[:0], len(es))[:len(es)]
	for x, e := range es {
		in.buf[end[stage[x]]] = e
		end[stage[x]]++
	}
	in.out = slices.Grow(in.out[:0], s)[:s]
	lo := 0
	for t, hi := range end[:s] {
		in.out[t] = in.buf[lo:hi:hi]
		lo = hi
	}
	return in.out
}

// stagedB is a B operand as its plan's stage loop consumes it on one rank:
// the rank's sorted block and the views derived from it. The views depend
// on (plan, k, n, rank) and the entries alone — never on the frontier — so
// they are built once, when the block is staged, not on every
// multiplication.
type stagedB[T any] struct {
	entries []sparse.Entry[T]
	// blocks[t] is what the rank holds of stage t: under VarAB the entries
	// whose row lies in the stage's k-range (rows are the major sort key,
	// so a sub-slice of entries); under VarBC a copy of those whose column
	// lies in the stage's n-range, cut from stages; under VarAC, where B is
	// stationary, the one block, entries itself.
	blocks [][]sparse.Entry[T]
	stages buckets[T]
	// offs[t] is blocks[t]'s row index over the k-range the rank multiplies
	// it against — valid for the rank's own block, which is what it
	// multiplies whenever it is the stage's broadcast root.
	offs [][]int32
}

// stageB derives the stage views of a rank's staged block.
func stageB[T any](plan Plan, k, n, rank int, entries []sparse.Entry[T]) *stagedB[T] {
	inner := plan.P2 * plan.P3
	myR, myC := rank%inner/plan.P3, rank%plan.P3
	// B's staging consults only the k and n ranges, which no plan derives
	// from the frontier row count.
	r := layerRanges(plan, 1, k, n, rank/inner)
	s := plan.stages()
	b := &stagedB[T]{entries: entries}
	switch plan.YZ {
	case VarAB:
		b.blocks, b.offs = make([][]sparse.Entry[T], s), make([][]int32, s)
		lo := 0
		for t := range b.blocks {
			kb0, kb1 := stageBounds(t, r.k0, r.k1, s)
			hi := lo + sort.Search(len(entries)-lo, func(x int) bool { return entries[lo+x].I >= kb1 })
			b.blocks[t] = entries[lo:hi:hi]
			b.offs[t] = indexRows(nil, b.blocks[t], kb0, kb1)
			lo = hi
		}
	case VarAC:
		kb0, kb1 := stageBounds(myR, r.k0, r.k1, plan.P2)
		b.blocks = [][]sparse.Entry[T]{entries}
		b.offs = [][]int32{indexRows(nil, entries, kb0, kb1)}
	default:
		kb0, kb1 := stageBounds(myC, r.k0, r.k1, plan.P3)
		b.blocks = bucketByStage(&b.stages, entries, s, func(e sparse.Entry[T]) int { return partIn(e.J, r.n0, r.n1, s) })
		b.offs = make([][]int32, s)
		for t, blk := range b.blocks {
			b.offs[t] = indexRows(nil, blk, kb0, kb1)
		}
	}
	return b
}

// runAB: C stationary; A broadcast along grid rows, B along grid columns,
// one stage per k-block (lcm(p2,p3) stages). Every B column broadcast to
// this grid column lies in the rank's C block, whose columns bound the
// column kernel's accumulator. C is written over out: a one-stage product
// directly, the merge of several copied there.
func runAB[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC, TB],
	place *placement[TC, TB], out []sparse.Entry[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	flt.c0, flt.c1 = stageBounds(g.G2.MyC, r.n0, r.n1, plan.P3)
	aStage := bucketByStage(&place.stages, aE, s, func(e sparse.Entry[TC]) int { return partIn(e.J, r.k0, r.k1, s) })
	var acc []sparse.Entry[TC]
	for t := 0; t < s; t++ {
		aBlk := place.bcastA(g.G2.Row, t%plan.P3, aStage[t])
		kb0, kb1 := stageBounds(t, r.k0, r.k1, s)
		bBlk, offs := place.bcastB(g.G2.Col, t%plan.P2, b, t, kb0, kb1)
		if s == 1 {
			prod, ops := mulEntriesParallel(sess, aBlk, bBlk, offs, kb0, kb1, f, add, workers, flt, out)
			sess.Proc.AddFlops(ops)
			return prod
		}
		prod, ops := mulEntriesParallel(sess, aBlk, bBlk, offs, kb0, kb1, f, add, workers, flt, place.prod)
		sess.Proc.AddFlops(ops)
		place.prod = prod
		acc = place.merged.MergeParallel(acc, prod, add, workers)
	}
	return append(out[:0], acc...)
}

// runAC: B stationary; A broadcast along grid rows, partial C reduced along
// grid columns, one stage per m-block. The rank's B block bounds the
// columns of every partial product. The stages the rank roots are
// appended to out.
func runAC[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC, TB],
	place *placement[TC, TB], out []sparse.Entry[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	flt.c0, flt.c1 = stageBounds(g.G2.MyC, r.n0, r.n1, plan.P3)
	aStage := bucketByStage(&place.stages, aE, s, func(e sparse.Entry[TC]) int { return partIn(e.I, r.m0, r.m1, s) })
	kb0, kb1 := stageBounds(g.G2.MyR, r.k0, r.k1, plan.P2)
	out = out[:0]
	merge := func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
		return distmat.MergeSortedParallel(x, y, add, workers)
	}
	for t := 0; t < s; t++ {
		aBlk := place.bcastA(g.G2.Row, t%plan.P3, aStage[t])
		prod, ops := mulEntriesParallel(sess, aBlk, b.entries, b.offs[0], kb0, kb1, f, add, workers, flt, place.prod)
		sess.Proc.AddFlops(ops)
		place.prod = prod
		red := machine.ReduceSlices(g.G2.Col, t%plan.P2, prod, merge)
		if g.G2.MyR == t%plan.P2 {
			out = append(out, red...) // stages cover ascending row ranges
		}
	}
	return out
}

// runBC: A stationary; B broadcast along grid columns, partial C reduced
// along grid rows, one stage per n-block, which bounds the columns of the
// stage's partial product. The merge of the stages the rank roots is
// copied over out.
func runBC[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC, TB],
	place *placement[TC, TB], out []sparse.Entry[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	kb0, kb1 := stageBounds(g.G2.MyC, r.k0, r.k1, plan.P3)
	var acc []sparse.Entry[TC]
	merge := func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
		return distmat.MergeSortedParallel(x, y, add, workers)
	}
	for t := 0; t < s; t++ {
		bBlk, offs := place.bcastB(g.G2.Col, t%plan.P2, b, t, kb0, kb1)
		flt.c0, flt.c1 = stageBounds(t, r.n0, r.n1, s)
		prod, ops := mulEntriesParallel(sess, aE, bBlk, offs, kb0, kb1, f, add, workers, flt, place.prod)
		sess.Proc.AddFlops(ops)
		place.prod = prod
		red := machine.ReduceSlices(g.G2.Row, t%plan.P3, prod, merge)
		if g.G2.MyC == t%plan.P3 {
			acc = place.merged.MergeParallel(acc, red, add, workers) // stage columns interleave rows
		}
	}
	return append(out[:0], acc...)
}

// filter is how the local kernel folds a product: the screen that forms it
// (nil = f, keeping everything), and the storage the kept products fold
// into by column (nil = sort them instead) with [c0, c1), the columns the
// product can reach.
type filter[TC, TB any] struct {
	screen Screen[TC, TB]
	acc    *Accumulator[TC]
	c0, c1 int32
}

// Accumulator is the storage products fold into by column, kept by the
// caller across products so that a round allocates nothing for its
// product: per worker chunk of A's rows, a column accumulator and the
// scratch its drained rows go into (column keys recur in every row, so no
// two chunks share one), and the rotation the products themselves are
// written into (distmat.Accumulator), so that a product outlives the next
// one. The zero value is ready to use; one product at a time uses it.
type Accumulator[T any] struct {
	chunks []columnAcc[T]
	out    distmat.Accumulator[T]
}

// columnAcc is one worker chunk's share of an Accumulator.
type columnAcc[T any] struct {
	cols sparse.SPA[T]
	rows []sparse.Entry[T]
}

// chunked returns the storage of n worker chunks, growing it as needed.
func (a *Accumulator[T]) chunked(n int) []columnAcc[T] {
	if len(a.chunks) < n {
		a.chunks = append(a.chunks, make([]columnAcc[T], n-len(a.chunks))...)
	}
	return a.chunks[:n]
}

// mulEntriesMinEntries is the A-entry count below which mulEntriesParallel
// runs sequentially (distinct from sparse.mulParallelMinRows, which gates
// on CSR row count; here A is a coordinate list).
const mulEntriesMinEntries = 8

// mulEntriesParallel computes the row-wise kernel's product with A's rows
// blocked across workers: chunk boundaries are aligned to row breaks, each
// worker runs the kernel on its chunk against the shared B index, and the
// row-disjoint sorted outputs are concatenated in row order — so the result
// is identical to the sequential kernel. With an accumulator, chunk c
// folds into the accumulator's chunk c. The product is written over dst
// (dst[:0], grown as needed): by the kernel itself where there is one
// chunk, by the concatenation of the chunks' scratch otherwise. offs is
// bE's row index over [k0, k1).
func mulEntriesParallel[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC, TB], dst []sparse.Entry[TC],
) ([]sparse.Entry[TC], int64) {
	if len(aE) == 0 || len(bE) == 0 {
		return dst[:0], 0
	}
	// Align the even split of aE to row boundaries (entries are row-sorted).
	var bounds []int
	if workers > 1 && len(aE) >= mulEntriesMinEntries {
		bounds = []int{0}
		for _, r := range parallel.Ranges(len(aE), workers)[1:] {
			cut := r[0]
			for cut < len(aE) && cut > 0 && aE[cut].I == aE[cut-1].I {
				cut++
			}
			if cut > bounds[len(bounds)-1] && cut < len(aE) {
				bounds = append(bounds, cut)
			}
		}
		bounds = append(bounds, len(aE))
	}
	if len(bounds) < 3 {
		var acc *columnAcc[TC]
		if flt.acc != nil {
			acc = &flt.acc.chunked(1)[0]
		}
		return mulEntriesChunk(sess, aE, bE, offs, k0, k1, f, add, flt.screen, acc, flt.c0, flt.c1, dst)
	}
	parts := len(bounds) - 1
	var accs []columnAcc[TC]
	if flt.acc != nil {
		accs = flt.acc.chunked(parts)
	}
	chunks := make([][]sparse.Entry[TC], parts)
	var ops atomic.Int64
	parallel.For(parts, parts, func(part, _, _ int) {
		var acc *columnAcc[TC]
		var rows []sparse.Entry[TC]
		if accs != nil {
			acc = &accs[part]
			rows = acc.rows
		}
		out, n := mulEntriesChunk(sess, aE[bounds[part]:bounds[part+1]], bE, offs, k0, k1, f, add, flt.screen, acc, flt.c0, flt.c1, rows)
		if acc != nil {
			acc.rows = out
		}
		chunks[part] = out
		ops.Add(n)
	})
	dst = dst[:0]
	for _, c := range chunks {
		dst = append(dst, c...)
	}
	return dst, ops.Load()
}

// mulEntriesChunk runs one chunk of A's rows through the kernel, written
// over dst: the column kernel, folding into acc, or the sorting kernel
// where acc is nil.
func mulEntriesChunk[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], screen Screen[TC, TB], acc *columnAcc[TC], c0, c1 int32,
	dst []sparse.Entry[TC],
) ([]sparse.Entry[TC], int64) {
	if acc == nil {
		return mulEntriesRange(sess, aE, bE, offs, k0, k1, f, add, dst)
	}
	return mulEntriesColumns(sess, aE, bE, offs, k0, k1, f, add, screen, &acc.cols, c0, c1, dst)
}

// indexRows builds the CSR-style row offsets of bE over [k0, k1), written
// over dst (dst[:0], grown as needed).
func indexRows[TB any](dst []int32, bE []sparse.Entry[TB], k0, k1 int32) []int32 {
	nk := int(k1 - k0)
	offs := slices.Grow(dst[:0], nk+1)[:nk+1]
	clear(offs)
	for _, e := range bE {
		offs[e.I-k0+1]++
	}
	for i := 0; i < nk; i++ {
		offs[i+1] += offs[i]
	}
	return offs
}

// mulEntriesRange is the row-wise kernel over one contiguous chunk of A
// entries (whole rows) against the shared B row index: aE's columns and
// bE's rows both lie in [k0, k1). Inputs are (row, col)-sorted; the output,
// written over dst, is sorted and duplicate-free. The session counts every
// product. Returns the entry list and the f-evaluation count. It sorts each row's products,
// and runs only for callers that pass Multiply no accumulator: the
// CombBLAS-style baseline, whose kernel this is — a column accumulator here
// would speed the yardstick MFBC is measured against — and the tests'
// oracle for the column kernel.
func mulEntriesRange[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], dst []sparse.Entry[TC],
) ([]sparse.Entry[TC], int64) {
	out := dst[:0]
	var ops int64
	type jv struct {
		j int32
		v TC
	}
	var buf []jv
	flushRow := func(i int32) {
		if len(buf) == 0 {
			return
		}
		// Stable by j so contributions at one output coordinate fold in
		// k-order regardless of what else shares the buffer: the column
		// kernel folds them in that order, and TestMaskIsTheSort holds the
		// two kernels to the same bits.
		sort.SliceStable(buf, func(a, b int) bool { return buf[a].j < buf[b].j })
		cur := buf[0]
		for _, p := range buf[1:] {
			if p.j == cur.j {
				cur.v = add.Op(cur.v, p.v)
				continue
			}
			if !add.IsZero(cur.v) {
				out = append(out, sparse.Entry[TC]{I: i, J: cur.j, V: cur.v})
			}
			cur = p
		}
		if !add.IsZero(cur.v) {
			out = append(out, sparse.Entry[TC]{I: i, J: cur.j, V: cur.v})
		}
		buf = buf[:0]
	}
	row := int32(-1)
	for _, ea := range aE {
		if ea.I != row {
			flushRow(row)
			row = ea.I
		}
		if ea.J < k0 || ea.J >= k1 {
			continue
		}
		lo, hi := offs[ea.J-k0], offs[ea.J-k0+1]
		for _, eb := range bE[lo:hi] {
			buf = append(buf, jv{j: eb.J, v: f(ea.V, eb.V)})
			ops++
		}
	}
	flushRow(row)
	sess.Products.Add(ops)
	return out, ops
}

// mulEntriesColumns is mulEntriesRange folding by column, for products whose
// columns lie in [c0, c1): each product — f's, or the one the screen forms
// and keeps — folds at key j − c0 of the column accumulator cols, sized to
// c1 − c0 values, and at each row break the touched keys drain in ascending
// order into the output, written over dst. A rejected product is counted in
// Session.Screened.
// Products reach a column in k-order, as the stable sort left them, and
// fold left to right from the first, so the output — zero folds dropped —
// is bit for bit the sorting kernel's over the kept products.
func mulEntriesColumns[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], screen Screen[TC, TB], cols *sparse.SPA[TC], c0, c1 int32,
	dst []sparse.Entry[TC],
) ([]sparse.Entry[TC], int64) {
	cols.Size(int(c1 - c0))
	slab, out := cols.Val, dst[:0]
	var ops, dropped int64
	drain := func(i int32) {
		for _, key := range cols.Drain() {
			if v := slab[key]; !add.IsZero(v) {
				out = append(out, sparse.Entry[TC]{I: i, J: c0 + key, V: v})
			}
		}
	}
	row := int32(-1)
	for _, ea := range aE {
		if ea.I != row {
			drain(row)
			row = ea.I
		}
		if ea.J < k0 || ea.J >= k1 {
			continue
		}
		lo, hi := offs[ea.J-k0], offs[ea.J-k0+1]
		for _, eb := range bE[lo:hi] {
			ops++
			var v TC
			if screen == nil {
				v = f(ea.V, eb.V)
			} else {
				var keep bool
				if v, keep = screen(row, eb.J, ea.V, eb.V); !keep {
					dropped++
					continue
				}
			}
			if key := eb.J - c0; cols.Touch(key) {
				slab[key] = v
			} else {
				slab[key] = add.Op(slab[key], v)
			}
		}
	}
	drain(row)
	sess.Products.Add(ops)
	sess.Screened.Add(dropped)
	return out, ops
}
