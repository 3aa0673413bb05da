package spgemm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Session is one processor's handle for distributed multiplications. Grid
// construction is collective, so every processor must issue the same plan
// sequence (guaranteed because plan selection is deterministic). The
// session also caches stationary-operand working sets so that the
// adjacency-matrix replication of MFBC is paid once and amortized over all
// iterations and batches, as in the proof of Theorem 5.1.
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
	cache *OperandCache
}

// distsKey identifies one multiplication shape under one plan.
type distsKey struct {
	plan    Plan
	m, k, n int
}

// OperandCache holds one rank's stationary-operand working sets. It is
// rank-local state that can outlive the Session (and the simulated-machine
// run) that filled it: core's persistent distributed sessions hand the same
// cache to a fresh Session on every region, so a stationary matrix staged
// in one run is a warm hit — no redistribution, no fiber replication — in
// the next. That extends the Theorem 5.1 once-per-run amortization across
// the applies of an evolving-graph workload.
//
// The cache keeps every set it stages. That is bounded without an eviction
// policy: a session holds two stationary matrices, k and n are its vertex
// count (a vertex-set change rebuilds the session and its caches), and
// plans come from a fixed candidate list — so a matrix has at most one set
// per candidate plan. A fused region's pair sets are dropped by DropMatrix
// when the region ends.
//
// Beside the sets it keeps the owner tables of their k and n dimensions,
// bounded the same way: one per candidate plan's placement of each.
type OperandCache struct {
	sets   map[operandKey]*cachedOperand
	owners ownerTables
}

// operandKey identifies one staged working set: the matrix (by its
// process-unique ID, not its address — an address can be recycled by the
// allocator after the matrix dies, which would silently alias the cache to
// stale entries), the plan it was staged under, and B's dimensions k×n.
type operandKey struct {
	id   uint64
	plan Plan
	k, n int
}

// cachedOperand is one staged working set: what this rank holds after
// redistribution (and, for RoleB fiber plans, replication) of the keyed
// matrix, as a *stagedB of the matrix's entry type. PatchStationary keeps
// it current when the matrix is edited in place.
type cachedOperand struct {
	operandKey
	staged any
}

// NewOperandCache returns an empty stationary-operand cache.
func NewOperandCache() *OperandCache {
	return &OperandCache{sets: make(map[operandKey]*cachedOperand), owners: make(ownerTables)}
}

// Len returns the number of resident working sets.
func (c *OperandCache) Len() int { return len(c.sets) }

// DropMatrix removes every working set of matrix id: the pair operands a
// fused region staged for one apply.
func DropMatrix(c *OperandCache, id uint64) {
	for key := range c.sets {
		if key.id == id {
			delete(c.sets, key)
		}
	}
}

// PlanDims identifies one staged working set of a matrix: the plan it was
// staged under and B's dimensions.
type PlanDims struct {
	Plan Plan
	K, N int
}

// CachedPlans lists the (plan, dims) working sets resident for matrix id,
// sorted deterministically. Because every rank executes the same multiply
// sequence, the list is identical across the ranks of a session.
func CachedPlans(c *OperandCache, id uint64) []PlanDims {
	var out []PlanDims
	for key := range c.sets {
		if key.id == id {
			out = append(out, PlanDims{Plan: key.plan, K: key.k, N: key.n})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Plan != out[b].Plan {
			return out[a].Plan.String() < out[b].Plan.String()
		}
		if out[a].K != out[b].K {
			return out[a].K < out[b].K
		}
		return out[a].N < out[b].N
	})
	return out
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

// NewSession creates a session for this processor with a fresh operand
// cache.
func NewSession(p *machine.Proc) *Session {
	return NewSessionWithCache(p, NewOperandCache())
}

// NewSessionWithCache creates a session that adopts a previously filled
// operand cache. Grids are always rebuilt (they embed the run's
// communicators), but working sets staged by an earlier session over the
// same matrices are reused without re-staging.
func NewSessionWithCache(p *machine.Proc, c *OperandCache) *Session {
	if c == nil {
		c = NewOperandCache()
	}
	return &Session{Proc: p, grids: make(map[[3]int]*machine.Grid3), dists: make(map[distsKey][3]distmat.Dist), cache: c}
}

// Grid returns (building on first use) the p1×p2×p3 grid over the world.
func (s *Session) Grid(p1, p2, p3 int) *machine.Grid3 {
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
	s := plan.Stages()
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

// ownerTables holds the owner tables of the k and n dimensions, which are
// the vertex count for every multiply a resident operand cache serves, so
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

// Dists is the package-level Dists, built once per (plan, dims) and kept
// for the session: a sweep multiplies under the same few shapes every round.
// Its k and n tables come from the operand cache.
func (s *Session) Dists(plan Plan, m, k, n int) (da, db, dc distmat.Dist) {
	key := distsKey{plan, m, k, n}
	d, ok := s.dists[key]
	if !ok {
		da, db, dc = dists(plan, m, k, n, s.cache.owners)
		d = [3]distmat.Dist{da, db, dc}
		s.dists[key] = d
	}
	return d[0], d[1], d[2]
}

// Multiply computes the generalized product C = A •⟨add,f⟩ B according to
// plan, where A's entries are C's values. The working set of B
// (redistributed and, for RoleB plans, fiber-replicated) is cached in the
// session keyed by B's identity, so repeated multiplications against the
// same stationary matrix (MFBC's adjacency) pay its movement once.
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
	a *distmat.Mat[TC], b *distmat.Mat[TB],
	f func(TC, TB) TC,
	add algebra.Monoid[TC],
	screen func(i, j int32, v TC) bool, acc *Accumulator[TC],
) *distmat.Mat[TC] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("spgemm: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	world := s.Proc.World()
	if plan.Procs() != world.Size() {
		panic(fmt.Sprintf("spgemm: plan %s does not tile %d processors", plan, world.Size()))
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	g := s.Grid(plan.P1, plan.P2, plan.P3)
	da, db, dc := s.Dists(plan, m, k, n)
	workers := s.workers()

	// Stage the A operand (moving in every variant). Replication gathers
	// the fiber's blocks, each sorted and no two sharing a coordinate, and
	// merges them as they arrive.
	aE := distmat.Redistribute(world, a, da).Local
	if plan.P1 > 1 && plan.X == RoleA {
		aE = replicate(g.Fiber, aE)
	}

	// Stage the B operand, or find it in the cache. A rank owning no B
	// entries legitimately caches an empty block, so a hit is decided by the
	// map's ok flag: re-staging on an empty block would have that rank alone
	// re-enter the fiber collectives and desync the simulated machine.
	var sb *stagedB[TB]
	key := operandKey{id: b.ID(), plan: plan, k: k, n: n}
	if co, hit := s.cache.sets[key]; hit {
		sb = co.staged.(*stagedB[TB])
	} else {
		bE := distmat.Redistribute(world, b, db).Local
		if plan.P1 > 1 && plan.X == RoleB {
			bE = replicate(g.Fiber, bE)
		}
		sb = stageB(plan, k, n, s.Proc.Rank(), bE)
		s.cache.sets[key] = &cachedOperand{operandKey: key, staged: sb}
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

// replicate gathers the fiber's owner-disjoint sorted blocks into one
// sorted block in fresh storage, merged from the posted blocks.
func replicate[T any](fiber *machine.Comm, block []sparse.Entry[T]) []sparse.Entry[T] {
	var out []sparse.Entry[T]
	machine.AllgatherRecv(fiber, block, func(blocks [][]sparse.Entry[T]) { out = distmat.MergeDisjoint(blocks) })
	return out
}

// StationaryEdit is one coordinate edit of a stationary operand: an upsert
// of value V at (I, J), or — when Del is set — a deletion.
type StationaryEdit[T any] struct {
	I, J int32
	V    T
	Del  bool
}

// PatchStationary merges globally known coordinate edits (sorted by row,
// then column, duplicate-free) into every cached working set of matrix id,
// in place of invalidating and re-staging. For each set it recomputes,
// from the cached plan, exactly which edits a full staging would have
// landed on this rank — the plan's B distribution, widened to the whole
// fiber group for RoleB-replicated plans — and splices them into the
// resident sorted block. The patched set is entry-for-entry identical to
// what Redistribute (+ fiber Allgather) of the edited matrix would
// produce, but moves no simulated bytes: only the blocks a diff touches
// change, so the stationary placement cost stays amortized across an
// evolving-graph mutation stream.
//
// The merge rewrites the rank's local block (host-side O(local nnz), no
// modeled communication; the returned operation count is what a faithful
// region charges as local γ-flops — core's sessions defer it to the next
// machine region or charge it inside the fused patch phase).
func PatchStationary[T any](c *OperandCache, rank int, id uint64, edits []StationaryEdit[T]) int64 {
	if c == nil || len(edits) == 0 {
		return 0
	}
	var ops int64
	for _, co := range c.sets {
		if co.id != id {
			continue
		}
		owns := stationaryOwnership(co.plan, co.k, co.n, c.owners)
		out := Splice(co.staged.(*stagedB[T]).entries, edits, func(i, j int32) bool { return owns(rank, i, j) })
		co.staged = stageB(co.plan, co.k, co.n, rank, out)
		ops += int64(len(out))
	}
	return ops
}

// Splice merges the owned subset of sorted, duplicate-free edits into a
// sorted, duplicate-free entry slice: upserts insert or replace, deletes
// drop. The result is a fresh slice; cur is left as it was.
func Splice[T any](cur []sparse.Entry[T], edits []StationaryEdit[T], owned func(i, j int32) bool) []sparse.Entry[T] {
	out := make([]sparse.Entry[T], 0, len(cur)+len(edits))
	x := 0
	for _, ed := range edits {
		if !owned(ed.I, ed.J) {
			continue
		}
		for x < len(cur) && (cur[x].I < ed.I || (cur[x].I == ed.I && cur[x].J < ed.J)) {
			out = append(out, cur[x])
			x++
		}
		if x < len(cur) && cur[x].I == ed.I && cur[x].J == ed.J {
			x++ // replaced by the upsert, or deleted
		}
		if !ed.Del {
			out = append(out, sparse.Entry[T]{I: ed.I, J: ed.J, V: ed.V})
		}
	}
	return append(out, cur[x:]...)
}

// StationaryOwnership returns the membership test of a staged stationary-B
// working set under plan (with B dimensions k×n): whether a rank's set
// holds coordinate (i, j). The plan's B distribution is hoisted once —
// call this per (plan, dims) and reuse the closure across coordinates, as
// the patch/stage hot paths do. Ownership is the B distribution widened to
// the whole fiber group for plans that replicate B across layers. B's
// distribution is independent of the frontier row count m for every plan
// (only the k and n coordinates of a B entry are consulted), matching the
// cache key's omission of m.
func StationaryOwnership(plan Plan, k, n int) func(rank int, i, j int32) bool {
	return stationaryOwnership(plan, k, n, nil)
}

func stationaryOwnership(plan Plan, k, n int, tables ownerTables) func(rank int, i, j int32) bool {
	if plan.P1 > 1 && plan.X == RoleB {
		// After replication a rank holds the union of its fiber group:
		// every layer at the same inner grid position, which is what B's
		// terms sum to before the layer hash is added.
		row, col := ownerTerms(plan, 1, k, n, RoleB, tables)
		inner := plan.P2 * plan.P3
		return func(rank int, i, j int32) bool { return int(row[i]+col[j]) == rank%inner }
	}
	owner := owner(plan, 1, k, n, RoleB, tables)
	return func(rank int, i, j int32) bool { return owner(i, j) == rank }
}

// PairSplice lifts a scalar stationary block into the pair operand of a
// fused incremental region: each resident entry becomes {Old: w, New: w},
// and the owned subset of the sorted new-side edits is spliced into the
// New component — deletions mark the new side absent (∞), upserts replace
// or insert it. The result is entry-for-entry what staging the old and
// new matrices side by side would produce, built from resident data alone.
func PairSplice(cur []sparse.Entry[float64], edits []StationaryEdit[float64], owned func(i, j int32) bool) []sparse.Entry[algebra.WeightPair] {
	out := make([]sparse.Entry[algebra.WeightPair], 0, len(cur)+len(edits))
	both := func(e sparse.Entry[float64]) sparse.Entry[algebra.WeightPair] {
		return sparse.Entry[algebra.WeightPair]{I: e.I, J: e.J, V: algebra.WeightPair{Old: e.V, New: e.V}}
	}
	x := 0
	for _, ed := range edits {
		if !owned(ed.I, ed.J) {
			continue
		}
		for x < len(cur) && (cur[x].I < ed.I || (cur[x].I == ed.I && cur[x].J < ed.J)) {
			out = append(out, both(cur[x]))
			x++
		}
		v := algebra.WeightPair{Old: algebra.Inf, New: algebra.Inf}
		if x < len(cur) && cur[x].I == ed.I && cur[x].J == ed.J {
			v.Old = cur[x].V
			x++
		}
		if !ed.Del {
			v.New = ed.V
		}
		if !math.IsInf(v.Old, 1) || !math.IsInf(v.New, 1) {
			out = append(out, sparse.Entry[algebra.WeightPair]{I: ed.I, J: ed.J, V: v})
		}
	}
	for ; x < len(cur); x++ {
		out = append(out, both(cur[x]))
	}
	return out
}

// StagePairStationary registers, for every resident working set of the
// scalar matrix srcID, a pair working set for matrix dstID under the same
// (plan, dims) key, built by PairSplice from the resident entries and the
// owned subset of the new-side edits. A fused region that pre-stages pairs
// this way turns its pair multiplications into warm cache hits: no
// redistribution, no fiber replication — only the diff moved. Returns the
// local splice work in entry writes (the caller charges it as γ-flops).
// Pair sets are transient; drop them after the region with DropMatrix.
func StagePairStationary(c *OperandCache, rank int, srcID, dstID uint64, edits []StationaryEdit[float64]) int64 {
	if c == nil {
		return 0
	}
	var ops int64
	for _, pd := range CachedPlans(c, srcID) {
		plan, k, n := pd.Plan, pd.K, pd.N
		src := c.sets[operandKey{id: srcID, plan: plan, k: k, n: n}]
		owns := stationaryOwnership(plan, k, n, c.owners)
		pair := PairSplice(src.staged.(*stagedB[float64]).entries, edits, func(i, j int32) bool {
			return owns(rank, i, j)
		})
		dst := operandKey{id: dstID, plan: plan, k: k, n: n}
		c.sets[dst] = &cachedOperand{operandKey: dst, staged: stageB(plan, k, n, rank, pair)}
		ops += int64(len(pair))
	}
	return ops
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
// edited (PatchStationary), not on every multiplication.
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
	s := plan.Stages()
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
	s := plan.Stages()
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
	s := plan.Stages()
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
	s := plan.Stages()
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
