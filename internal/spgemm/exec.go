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
// one machine region. Grid construction is collective, so every processor
// must issue the same plan sequence (guaranteed because plan selection is
// deterministic). What a rank keeps of a stationary operand across
// multiplies and regions lives on the operand (Stationary), not here.
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
	// Products counts the f evaluations of this session's multiplies and
	// Screened those Multiply's screen rejected; the kernel's workers add.
	Products, Screened atomic.Int64

	grids map[[3]int]*machine.Grid3
	dists map[distsKey][3]distmat.Dist
}

// distsKey identifies one multiplication shape under one plan.
type distsKey struct {
	plan    Plan
	m, k, n int
}

// workers resolves the Workers knob for this rank; see the field comment.
// The fair share divides host cores by the ranks co-hosted in this OS
// process (the whole world under sim, one under a rank-per-process
// transport, where each rank owns its host's cores).
func (s *Session) workers() int {
	if s.Workers != 0 {
		return parallel.Resolve(s.Workers)
	}
	w := parallel.Resolve(0) / s.Proc.LocalRanks()
	if w < 1 {
		w = 1
	}
	return w
}

// NewSession creates a session for this processor.
func NewSession(p *machine.Proc) *Session {
	return &Session{Proc: p, grids: make(map[[3]int]*machine.Grid3), dists: make(map[distsKey][3]distmat.Dist)}
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

func shard(i, j int32, p int) int {
	h := uint64(uint32(i))*0x9E3779B1 ^ uint64(uint32(j))*0x85EBCA77
	h ^= h >> 33
	return int(h % uint64(p))
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

// ownerTables holds the owner tables of a stationary operand's k and n
// dimensions, which are the matrix's own for every multiply against it, so
// that a region or an apply that starts a new Session builds none of them
// again. The frontier's m dimension changes from batch to batch; its tables
// are built per Session. A nil ownerTables builds every table afresh.
type ownerTables map[axisKey][]int32

func (o ownerTables) get(key axisKey, keep bool) []int32 {
	if t, ok := o[key]; ok {
		return t
	}
	t := key.table()
	if keep && o != nil {
		o[key] = t
	}
	return t
}

// owner returns the owner function of operand role under plan: the sum of
// its coordinates' table terms. The fiber dimension — n under RoleA, m
// under RoleB, k under RoleC — is split into p1 layer ranges, and a
// coordinate on it carries its layer in its term. The operand a 3D plan
// replicates has no coordinate on it: before replication its entries are
// spread over the layers by a hash of the coordinate pair. C, reduced under
// RoleC, sums to its inner grid position on every layer, and the reduction
// root rotates with it.
func owner(plan Plan, m, k, n int, role Role, tables ownerTables) func(i, j int32) int {
	row, col := ownerTerms(plan, m, k, n, role, tables)
	p1, inner := plan.P1, plan.P2*plan.P3
	switch {
	case p1 > 1 && role == plan.X && role != RoleC:
		return func(i, j int32) int { return int(row[i]+col[j]) + shard(i, j, p1)*inner }
	case p1 > 1 && role == RoleC && plan.X == RoleC:
		rot := make([]int32, inner)
		for q, l := 0, 0; q < inner; q++ {
			rot[q] = int32(l*inner + q)
			if l++; l == p1 {
				l = 0
			}
		}
		return func(i, j int32) int { return int(rot[row[i]+col[j]]) }
	}
	return func(i, j int32) int { return int(row[i] + col[j]) }
}

// ownerTerms returns the tables of operand role's row and column
// coordinates under plan.
func ownerTerms(plan Plan, m, k, n int, role Role, tables ownerTables) (row, col []int32) {
	const dimM, dimK, dimN = 0, 1, 2
	size := [3]int{m, k, n}
	dims := [3][2]int{{dimM, dimK}, {dimK, dimN}, {dimM, dimN}}[role]
	split := [3]int{dimN, dimM, dimK}[plan.X]
	tableOf := func(d int, a axis) []int32 {
		key := axisKey{size: size[d], layers: 1, inner: plan.P2 * plan.P3, axis: a}
		if d == split {
			key.layers = max(plan.P1, 1)
		}
		return tables.get(key, d != dimM)
	}
	ai, aj := axes(plan, role)
	return tableOf(dims[0], ai), tableOf(dims[1], aj)
}

// Dists returns the input distributions the plan requires for A and B and
// the output distribution it produces for C.
func Dists(plan Plan, m, k, n int) (da, db, dc distmat.Dist) {
	return dists(plan, m, k, n, nil)
}

func dists(plan Plan, m, k, n int, tables ownerTables) (da, db, dc distmat.Dist) {
	p := plan.Procs()
	dist := func(role Role) distmat.Dist {
		key := fmt.Sprintf("spgemm(%s,%s,m=%d,k=%d,n=%d)", plan, role, m, k, n)
		return distmat.Dist{Key: key, P: p, Owner: owner(plan, m, k, n, role, tables)}
	}
	return dist(RoleA), dist(RoleB), dist(RoleC)
}

// Multiply computes the generalized product C = A •⟨add,f⟩ B according to
// plan, where A's entries are C's values. B's working set under plan
// (redistributed and, for RoleB plans, fiber-replicated) is staged on b the
// first time, so repeated multiplications against the same stationary
// operand (MFBC's adjacency) pay its movement once. A moves for every
// multiply, into storage the rank reuses (placement, a machine.Scratch): a
// caller whose ranks keep their scratch store across regions places A
// without allocating once that storage has grown.
//
// Where the caller passes acc, every product folds by column, a row at a
// time, into acc's storage, which the caller keeps across products, and
// each row drains in column order: the sorting kernel's output bit for bit,
// without the sort, under every plan. The returned C never shares storage
// with acc. Without acc the products are sorted, row by row: the kernel of
// the CombBLAS-style baseline, which keeps its own, and of the tests'
// oracle.
//
// screen (nil = none) is asked about every product f yields, by output
// coordinate, before the local kernel folds it: a rejected product is charged
// as a flop, then neither folded nor merged. The caller must reject only what
// cannot change what it keeps of C, and depend on no rejection: the screen
// runs only where a rank's products are final (C stationary: VarAB without a
// RoleC fiber) — a partial-C reduction is charged by contribution size, so
// there it would move the modeled bytes. A screen that runs always folds by
// column, into storage of the call's own where acc is nil. Workers > 1 call
// the screen from several goroutines at once.
func Multiply[TC, TB any](
	s *Session, plan Plan,
	a *distmat.Mat[TC], b *Stationary[TB],
	f func(TC, TB) TC,
	add algebra.Monoid[TC],
	screen func(i, j int32, v TC) bool, acc *Accumulator[TC],
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
	place := machine.Scratch[placement[TC]](s.Proc)
	aE := distmat.RedistributeInto(world, a, da, &place.moved).Local
	if plan.P1 > 1 && plan.X == RoleA {
		place.replicated = replicate(g.Fiber, aE, place.replicated)
		aE = place.replicated
	}

	// Stage the B operand, or find it staged on b. A rank owning no B
	// entries legitimately holds an empty set, so a hit is decided by the
	// map's ok flag: re-staging on an empty set would have that rank alone
	// re-enter the fiber collectives and desync the simulated machine.
	sb, hit := b.sets[plan]
	if !hit {
		bE := distmat.Redistribute(world, b.m, db).Local
		if plan.P1 > 1 && plan.X == RoleB {
			bE = replicate(g.Fiber, bE, nil)
		}
		sb = stageB(plan, k, n, s.Proc.Rank(), bE)
		b.sets[plan] = sb
	}

	r := layerRanges(plan, m, k, n, g.MyLayer)
	flt := filter[TC]{screen: screen, acc: acc}
	if plan.YZ != VarAB || plan.P1 > 1 && plan.X == RoleC {
		flt.screen = nil // partial products: their reduction is charged by size
	}
	if flt.screen != nil && acc == nil {
		flt.acc = new(Accumulator[TC])
	}
	var c []sparse.Entry[TC]
	switch plan.YZ {
	case VarAB:
		c = runAB(s, g, plan, r, aE, sb, f, add, workers, flt)
	case VarAC:
		c = runAC(s, g, plan, r, aE, sb, f, add, workers, flt)
	default:
		c = runBC(s, g, plan, r, aE, sb, f, add, workers, flt)
	}

	if plan.P1 > 1 && plan.X == RoleC {
		// Partial C matrices live at the same inner position of every
		// layer; reduce over the fiber to the rotating root layer.
		rootLayer := (g.G2.MyR*plan.P3 + g.G2.MyC) % plan.P1
		red := machine.ReduceSlices(g.Fiber, rootLayer, c, func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
			return distmat.MergeSortedParallel(x, y, add, workers)
		})
		if g.MyLayer == rootLayer {
			c = red
		} else {
			c = nil
		}
	}
	return &distmat.Mat[TC]{Rows: m, Cols: n, Dist: dc, Local: c}
}

// placement is the storage one rank's multiplies place their A operand in
// (machine.Scratch): the frontier redistributed into the plan's A
// distribution, and its fiber replication under RoleA plans. Each multiply
// writes over the last one's: the placement dies when Multiply returns —
// its broadcasts' and the fiber gather's readers have finished by the
// closing barrier of their superstep, and no product shares it.
type placement[T any] struct {
	moved, replicated []sparse.Entry[T]
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

// bucketByStage splits es by stage, keeping each bucket in es's order. The
// single bucket of a one-stage plan is es itself; otherwise one counting
// pass sizes every bucket inside a single buffer, as Redistribute sizes its
// parts.
func bucketByStage[T any](es []sparse.Entry[T], s int, stageOf func(sparse.Entry[T]) int) [][]sparse.Entry[T] {
	if s == 1 {
		return [][]sparse.Entry[T]{es}
	}
	stage := make([]int32, len(es))
	end := make([]int, s+1)
	for x, e := range es {
		t := stageOf(e)
		stage[x] = int32(t)
		end[t+1]++
	}
	for t := 0; t < s; t++ {
		end[t+1] += end[t]
	}
	buf := make([]sparse.Entry[T], len(es))
	for x, e := range es {
		buf[end[stage[x]]] = e
		end[stage[x]]++
	}
	out := make([][]sparse.Entry[T], s)
	lo := 0
	for t, hi := range end[:s] {
		out[t] = buf[lo:hi:hi]
		lo = hi
	}
	return out
}

// stagedB is a B operand as its plan's stage loop consumes it on one rank:
// the rank's sorted block and the views derived from it. The views depend
// on (plan, k, n, rank) and the entries alone — never on the frontier — so
// they are built when the block is staged and rebuilt only when it is
// edited (Stationary.Patch), not on every multiplication.
type stagedB[T any] struct {
	entries []sparse.Entry[T]
	// blocks[t] is what the rank holds of stage t: under VarAB the entries
	// whose row lies in the stage's k-range (rows are the major sort key,
	// so a sub-slice of entries); under VarBC a copy of those whose column
	// lies in the stage's n-range; under VarAC, where B is stationary, the
	// one block, entries itself.
	blocks [][]sparse.Entry[T]
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
		b.blocks = make([][]sparse.Entry[T], s)
		b.offs = make([][]int32, s)
		lo := 0
		for t := range b.blocks {
			kb0, kb1 := stageBounds(t, r.k0, r.k1, s)
			hi := lo + sort.Search(len(entries)-lo, func(x int) bool { return entries[lo+x].I >= kb1 })
			b.blocks[t] = entries[lo:hi:hi]
			b.offs[t] = indexRows(b.blocks[t], kb0, kb1)
			lo = hi
		}
	case VarAC:
		kb0, kb1 := stageBounds(myR, r.k0, r.k1, plan.P2)
		b.blocks = [][]sparse.Entry[T]{entries}
		b.offs = [][]int32{indexRows(entries, kb0, kb1)}
	default:
		kb0, kb1 := stageBounds(myC, r.k0, r.k1, plan.P3)
		b.blocks = bucketByStage(entries, s, func(e sparse.Entry[T]) int { return partIn(e.J, r.n0, r.n1, s) })
		b.offs = make([][]int32, s)
		for t, blk := range b.blocks {
			b.offs[t] = indexRows(blk, kb0, kb1)
		}
	}
	return b
}

// bcast broadcasts stage t's block from root over c and returns it with its
// row index: the prebuilt one at the root, whose block is its own; nil at
// the receivers, which index what arrives.
func (b *stagedB[T]) bcast(c *machine.Comm, root, t int) ([]sparse.Entry[T], []int32) {
	blk := machine.Bcast(c, root, b.blocks[t])
	if c.Rank() == root {
		return blk, b.offs[t]
	}
	return blk, nil
}

// runAB: C stationary; A broadcast along grid rows, B along grid columns,
// one stage per k-block (lcm(p2,p3) stages). Every B column broadcast to
// this grid column lies in the rank's C block, whose columns bound the
// column kernel's accumulator.
func runAB[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	flt.c0, flt.c1 = stageBounds(g.G2.MyC, r.n0, r.n1, plan.P3)
	aStage := bucketByStage(aE, s, func(e sparse.Entry[TC]) int { return partIn(e.J, r.k0, r.k1, s) })
	var acc []sparse.Entry[TC]
	for t := 0; t < s; t++ {
		aBlk := machine.Bcast(g.G2.Row, t%plan.P3, aStage[t])
		bBlk, offs := b.bcast(g.G2.Col, t%plan.P2, t)
		kb0, kb1 := stageBounds(t, r.k0, r.k1, s)
		prod, ops := mulEntriesParallel(sess, aBlk, bBlk, offs, kb0, kb1, f, add, workers, flt)
		sess.Proc.AddFlops(ops)
		acc = distmat.MergeSortedParallel(acc, prod, add, workers)
	}
	return acc
}

// runAC: B stationary; A broadcast along grid rows, partial C reduced along
// grid columns, one stage per m-block. The rank's B block bounds the
// columns of every partial product.
func runAC[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	flt.c0, flt.c1 = stageBounds(g.G2.MyC, r.n0, r.n1, plan.P3)
	aStage := bucketByStage(aE, s, func(e sparse.Entry[TC]) int { return partIn(e.I, r.m0, r.m1, s) })
	kb0, kb1 := stageBounds(g.G2.MyR, r.k0, r.k1, plan.P2)
	var acc []sparse.Entry[TC]
	merge := func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
		return distmat.MergeSortedParallel(x, y, add, workers)
	}
	for t := 0; t < s; t++ {
		aBlk := machine.Bcast(g.G2.Row, t%plan.P3, aStage[t])
		prod, ops := mulEntriesParallel(sess, aBlk, b.entries, b.offs[0], kb0, kb1, f, add, workers, flt)
		sess.Proc.AddFlops(ops)
		red := machine.ReduceSlices(g.G2.Col, t%plan.P2, prod, merge)
		if g.G2.MyR == t%plan.P2 {
			acc = append(acc, red...) // stages cover ascending row ranges
		}
	}
	return acc
}

// runBC: A stationary; B broadcast along grid columns, partial C reduced
// along grid rows, one stage per n-block, which bounds the columns of the
// stage's partial product.
func runBC[TC, TB any](
	sess *Session, g *machine.Grid3, plan Plan, r ranges,
	aE []sparse.Entry[TC], b *stagedB[TB],
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC],
) []sparse.Entry[TC] {
	s := plan.stages()
	kb0, kb1 := stageBounds(g.G2.MyC, r.k0, r.k1, plan.P3)
	var acc []sparse.Entry[TC]
	merge := func(x, y []sparse.Entry[TC]) []sparse.Entry[TC] {
		return distmat.MergeSortedParallel(x, y, add, workers)
	}
	for t := 0; t < s; t++ {
		bBlk, offs := b.bcast(g.G2.Col, t%plan.P2, t)
		flt.c0, flt.c1 = stageBounds(t, r.n0, r.n1, s)
		prod, ops := mulEntriesParallel(sess, aE, bBlk, offs, kb0, kb1, f, add, workers, flt)
		sess.Proc.AddFlops(ops)
		red := machine.ReduceSlices(g.G2.Row, t%plan.P3, prod, merge)
		if g.G2.MyC == t%plan.P3 {
			acc = distmat.MergeSortedParallel(acc, red, add, workers) // stage columns interleave rows
		}
	}
	return acc
}

// filter is how the local kernel folds a product: the screen it asks first
// (nil = keep everything), and the storage the kept products fold into by
// column (nil = sort them instead) with [c0, c1), the columns the product
// can reach.
type filter[TC any] struct {
	screen func(i, j int32, v TC) bool
	acc    *Accumulator[TC]
	c0, c1 int32
}

// Accumulator is the storage products fold into by column, kept by the
// caller across products so that a round allocates only its result: per
// worker chunk of A's rows, a column accumulator and the scratch its drained
// rows go into. Column keys recur in every row, so no two chunks share one.
// The zero value is ready to use; one product at a time uses it.
type Accumulator[T any] struct {
	chunks []columnAcc[T]
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
// folds into the accumulator's chunk c, and the result is copied out of its
// scratch — by the concatenation, or alone where there is one chunk — so
// the caller may hold it past the next product. offs is bE's row index over [k0, k1)
// when the caller holds one (a staged stationary block), nil to have it
// built here.
func mulEntriesParallel[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], workers int, flt filter[TC],
) ([]sparse.Entry[TC], int64) {
	if len(aE) == 0 || len(bE) == 0 {
		return nil, 0
	}
	if offs == nil {
		offs = indexRows(bE, k0, k1)
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
	parts := max(len(bounds)-1, 1)
	var accs []columnAcc[TC]
	if flt.acc != nil {
		accs = flt.acc.chunked(parts)
	}
	kernel := func(aE []sparse.Entry[TC], part int) ([]sparse.Entry[TC], int64) {
		if flt.acc == nil {
			return mulEntriesRange(sess, aE, bE, offs, k0, k1, f, add)
		}
		return mulEntriesColumns(sess, aE, bE, offs, k0, k1, f, add, flt.screen, &accs[part], flt.c0, flt.c1)
	}
	if parts == 1 {
		out, ops := kernel(aE, 0)
		if flt.acc != nil {
			out = slices.Clone(out)
		}
		return out, ops
	}
	chunks := make([][]sparse.Entry[TC], parts)
	var ops atomic.Int64
	parallel.For(parts, parts, func(part, _, _ int) {
		out, n := kernel(aE[bounds[part]:bounds[part+1]], part)
		chunks[part] = out
		ops.Add(n)
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]sparse.Entry[TC], 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, ops.Load()
}

// indexRows builds the CSR-style row offsets of bE over [k0, k1).
func indexRows[TB any](bE []sparse.Entry[TB], k0, k1 int32) []int32 {
	nk := int(k1 - k0)
	offs := make([]int32, nk+1)
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
// bE's rows both lie in [k0, k1). Inputs are (row, col)-sorted; the output
// is sorted and duplicate-free. The session counts every product. Returns
// the entry list and the f-evaluation count. It sorts each row's products,
// and runs only for callers that pass Multiply no accumulator: the
// CombBLAS-style baseline, whose kernel this is — a column accumulator here
// would speed the yardstick MFBC is measured against — and the tests'
// oracle for the column kernel.
func mulEntriesRange[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC],
) ([]sparse.Entry[TC], int64) {
	var out []sparse.Entry[TC]
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
		// k-order regardless of what else shares the buffer. The fused
		// incremental path's bit-identity to per-side scalar sweeps depends
		// on this: pair and scalar runs fill the buffer with different
		// entry sets, and an unstable sort could permute equal-j groups
		// differently between them.
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
// columns lie in [c0, c1): each product the screen (nil = none) keeps folds
// at key j − c0 of acc's column accumulator, sized to c1 − c0 values, and at
// each row break the touched keys drain in ascending order into acc's row
// scratch, which it returns. A rejected product is counted in
// Session.Screened.
// Products reach a column in k-order, as the stable sort left them, and
// fold left to right from the first, so the output — zero folds dropped —
// is bit for bit the sorting kernel's over the kept products.
func mulEntriesColumns[TC, TB any](
	sess *Session, aE []sparse.Entry[TC], bE []sparse.Entry[TB], offs []int32, k0, k1 int32,
	f func(TC, TB) TC, add algebra.Monoid[TC], screen func(i, j int32, v TC) bool, acc *columnAcc[TC], c0, c1 int32,
) ([]sparse.Entry[TC], int64) {
	cols := &acc.cols
	cols.Size(int(c1 - c0))
	slab, out := cols.Val, acc.rows[:0]
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
			v := f(ea.V, eb.V)
			ops++
			switch key := eb.J - c0; {
			case screen != nil && !screen(row, eb.J, v):
				dropped++
			case cols.Touch(key):
				slab[key] = v
			default:
				slab[key] = add.Op(slab[key], v)
			}
		}
	}
	drain(row)
	acc.rows = out
	sess.Products.Add(ops)
	sess.Screened.Add(dropped)
	return out, ops
}
