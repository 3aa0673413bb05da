// Package core implements the paper's primary contribution: Maximal
// Frontier Betweenness Centrality (MFBC), composed of the Maximal Frontier
// Bellman-Ford (MFBF, Algorithm 1) and Maximal Frontier Brandes (MFBr,
// Algorithm 2) phases combined with batching (Algorithm 3).
//
// This file holds the sequential implementation, which is both the p=1 fast
// path and the reference the distributed implementation is tested against.
// See dist.go for the distributed version built on communication-efficient
// sparse matrix multiplication.
//
// # Workspace
//
// A batch of nb sources over n vertices runs in one workspace that lives
// for the whole batch and, through an unexported pool, across batches:
//
//   - T is a dense nb×n slab of multpaths (16 B a pair); (+∞, 0) marks an
//     absent pair (unreachable, or the suppressed source diagonal). Z is an
//     8 B slab of the same shape holding ζ alone, meaningful where T is
//     present: Z's weight always equals T's, and the child counter is row
//     scratch because it ends at −1 on every present pair. 24 B·nb·n in all.
//   - Each worker owns a rowScratch: the sparse accumulators, their
//     occupancy bitset and touched list (drained by sparse.DrainOrder, the
//     rule of the entry-list kernel's accumulator too), two frontier buffers
//     it alternates between, and the backward sweep's child counters and
//     tight-predecessor lists — int32 vertices laid out on Aᵀ's own row
//     extents, 4 B·nnz(A), a third of A itself. All are sized once and
//     reused across rows, rounds and batches.
//
// Rows of the batch never interact, so a worker takes each of its rows to
// convergence before the next (forwardRow, backwardRow): the T row, the Z
// row and the accumulator stay cache-resident for all of a row's rounds,
// the iteration count of a sweep is the maximum over rows and its op count
// the sum. One round multiplies the row's frontier list into the
// accumulator (push forward, pull backward) and then drains the accumulator
// in column order (merge, settle), and every step that used to be a
// whole-matrix pass happens in that drain — the diagonal drop, the merge
// into the slab, and the emission of the next frontier — so a round costs
// O(products + touched) rather than O(nnz(T)). Because the T row is at hand
// during the forward product, push first screens each A row against it,
// branch-free: a contribution already strictly worse than T's accumulated
// weight is compacted away before the accumulator's unpredictable branches
// see it; the drain would have discarded it, so results and op counts are
// unchanged. The backward sweep decides once per in-edge whether it is tight
// (on a shortest path from the source), in the expression the relaxation
// used, and its rounds walk the recorded verdicts; the memo is sound because
// T is converged before backwardRow starts, so no verdict can change while
// it is in use. CSR appears only at the MFBF/MFBr API boundary (one
// exact-size export, one import); MFBC and MFBCBatchParallel never build
// one.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Options configures an MFBC run.
type Options struct {
	// Batch is n_b, the number of source vertices processed per MFBF+MFBr
	// sweep: the time/memory trade-off of Algorithm 3. Batch ≤ 0 selects
	// min(n, 128).
	Batch int
	// Workers is the shared-memory parallelism of the local kernels: 0
	// selects GOMAXPROCS, 1 runs the batch on the caller's goroutine.
	// Results are identical for every worker count.
	Workers int
}

func (o Options) batchFor(n int) int {
	b := o.Batch
	if b <= 0 {
		b = 128
	}
	if b > n {
		b = n
	}
	return b
}

// present reports whether a T slab cell holds a path.
func present(t algebra.MultPath) bool { return !math.IsInf(t.W, 1) }

// resetRow marks every pair of a T slab row absent.
func resetRow(trow []algebra.MultPath) {
	for j := range trow {
		trow[j] = algebra.MultPathZero()
	}
}

// workspace is the batch-resident state of the sweep (see the package
// comment). Slabs are row-major with stride n.
type workspace struct {
	t    []algebra.MultPath
	z    []float64
	rows []rowScratch // one per worker
}

// workspaces recycles workspaces across batches and callers. A workspace is
// put back only after a sweep that ran to completion, so every occupancy
// bitset in the pool is clear.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rowScratch is one worker's private state: the sparse accumulator of each
// sweep (mspa forward, rspa backward), the occupancy bitset and touched
// list they share, the double-buffered frontier — column indices with
// multpaths (forward) or ζ factors (backward) alongside — and the backward
// sweep's memo of the row in hand: children[v] counts the shortest-path-DAG
// children of v that have not reported yet (−1 once v itself has), and
// pred[at.RowPtr[u]:][:npred[u]] lists u's tight predecessors. The five
// int32 buffers of n vertices are cut from one allocation, byN.
//
// The forward sweep borrows children and rspa as its screen's candidate
// list (push): both are idle until backwardRow, which clears children and
// first-writes every rspa cell it reads before it reads either.
type rowScratch struct {
	occ      []uint64
	byN      []int32
	touched  []int32
	mspa     []algebra.MultPath
	rspa     []float64
	col      [2][]int32
	mval     [2][]algebra.MultPath
	pval     [2][]float64
	children []int32
	npred    []int32
	pred     []int32
}

func (s *rowScratch) size(n int) {
	s.occ = grow(s.occ, (n+63)/64)
	s.byN = grow(s.byN, 5*n)
	cut := func(k int) []int32 { return s.byN[k*n : (k+1)*n : (k+1)*n] }
	s.touched, s.col[0], s.col[1], s.children, s.npred = cut(0)[:0], cut(1), cut(2), cut(3), cut(4)
	s.mspa, s.rspa = grow(s.mspa, n), grow(s.rspa, n)
	for b := range s.mval {
		s.mval[b] = grow(s.mval[b], n)
		s.pval[b] = grow(s.pval[b], n)
	}
}

// drainOrder returns the columns the last product touched in ascending
// order and clears their occupancy, by the rule of sparse.DrainOrder. The
// returned slice is the touched list's storage and is valid until the next
// product.
func (s *rowScratch) drainOrder() []int32 {
	t := sparse.DrainOrder(s.occ, s.touched)
	s.touched = t[:0]
	return t
}

// forwardRow runs MFBF (Algorithm 1) for one source into trow, its row of
// the T slab: each round pushes the frontier one edge further and merges the
// accumulator into trow. It returns the products performed and the rounds
// run, giving up once rounds exceeds limit.
func (s *rowScratch) forwardRow(a *sparse.CSR[float64], src int32, trow []algebra.MultPath, limit int) (ops int64, rounds int) {
	resetRow(trow)
	col, val := s.col[0][:0], s.mval[0][:0]
	acols, avals := a.Row(int(src))
	for k, v := range acols {
		e := algebra.MultPath{W: avals[k], M: 1}
		if v == src || algebra.MultPathIsZero(e) {
			continue
		}
		trow[v] = e
		col, val = append(col, v), append(val, e)
	}

	for next := 1; len(col) > 0; next = 1 - next {
		rounds++
		if rounds > limit {
			break
		}
		ops += s.push(a, trow, col, val)
		col, val = s.merge(src, trow, next)
	}
	return ops, rounds
}

// push extends each frontier entry val[x] at vertex col[x] by one edge into
// the accumulator: multpath × weight under ⊕ with the Bellman-Ford action,
// the cases of algebra.MultPathPlus spelled in place. An A row is handled
// in two passes — screen compacts the products that can still matter into
// the candidate buffers, then only those meet the occupancy test and the
// three-way accumulate. ops is the product's nominal size, the whole A row
// of every frontier vertex, screened or not.
func (s *rowScratch) push(a *sparse.CSR[float64], trow []algebra.MultPath, col []int32, val []algebra.MultPath) (ops int64) {
	spa, occ, touched := s.mspa, s.occ, s.touched
	cj, cw := s.children, s.rspa // idle until backwardRow, see rowScratch
	for x, k := range col {
		f := val[x]
		bcols, bvals := a.Row(int(k))
		ops += int64(len(bcols))
		m := screen(trow, bcols, bvals, f.W, cj, cw)
		kept := cw[:m]
		for y, j := range cj[:m] {
			w := kept[y]
			word, bit := &occ[j>>6], uint64(1)<<(uint(j)&63)
			if *word&bit == 0 {
				*word |= bit
				touched = append(touched, j)
				spa[j] = algebra.MultPath{W: w, M: f.M}
				continue
			}
			switch acc := &spa[j]; {
			case acc.W < w:
			case acc.W > w:
				*acc = algebra.MultPath{W: w, M: f.M}
			default:
				acc.M += f.M
			}
		}
	}
	s.touched = touched
	return ops
}

// screen writes the target and weight fw + vals[y] of every product of one
// A row to cj/cw and returns how many it kept: a product strictly worse
// than the path T already holds can neither lower T nor tie with it, so the
// merge would discard it (an absent T(s,j) is +∞ and keeps everything).
// Branch-free, because three products in four fail on RMAT and which is not
// predictable: every position is written, only a pass advances.
//
// Not inlined on purpose: as a leaf the loop keeps its counters in
// registers, inside push they spill (seq-rmat op_p50_ms 35.0 vs 35.6 ms,
// the leaf lower in 8 of 10 alternated pairs; the -cpu 1 micro cannot tell
// them apart).
//
//go:noinline
func screen(trow []algebra.MultPath, cols []int32, vals []float64, fw float64, cj []int32, cw []float64) int {
	k, vals, cw := 0, vals[:len(cols)], cw[:len(cj)]
	for y, j := range cols {
		w := fw + vals[y]
		keep := 0
		if trow[j].W >= w {
			keep = 1
		}
		cj[k], cw[k] = j, w
		k += keep
	}
	return k
}

// merge drains the accumulator into trow and emits the next frontier into
// buffer next.
func (s *rowScratch) merge(src int32, trow []algebra.MultPath, next int) ([]int32, []algebra.MultPath) {
	col, val := s.col[next][:0], s.mval[next][:0]
	spa := s.mspa
	for _, j := range s.drainOrder() {
		e := spa[j]
		// Walks that return to their source are never shortest under
		// strictly positive weights: the diagonal stays absent.
		if j == src || algebra.MultPathIsZero(e) {
			continue
		}
		t := &trow[j]
		switch {
		case t.W < e.W:
			continue
		case t.W > e.W:
			*t = e
		default:
			t.M += e.M
		}
		// Algorithm 1 line 6: the next frontier keeps the extensions
		// whose weight matches the accumulated T (the two arms that
		// fall through); ties carry only the newly discovered
		// multiplicity forward.
		if e.M > 0 {
			col, val = append(col, j), append(val, e)
		}
	}
	return col, val
}

// backwardRow runs MFBr (Algorithm 2) for one source over its converged T
// row, leaving ζ(s,v) = δ(s,v)/σ̄(s,v) in zrow wherever trow is present.
//
// Counters are initialized to the number of shortest-path-DAG children of
// each (s,v) pair (the semantics Lemma 4.2 requires) by one product of the
// whole T row with Aᵀ, evaluated as a scan of the row's in-edges that also
// records every vertex's tight predecessors for the rounds that follow;
// leaves seed the first frontier. It returns the products performed (child
// counting included) and the back-propagation rounds run, giving up once
// rounds exceeds limit.
func (s *rowScratch) backwardRow(at *sparse.CSR[float64], trow []algebra.MultPath, zrow []float64, limit int) (ops int64, rounds int) {
	clear(zrow)
	s.pred = grow(s.pred, at.NNZ()) // sized by the operand, not by n: a no-op after the first row
	children, npred := s.children, s.npred
	clear(children)
	reached := s.col[0][:0]
	for u, t := range trow {
		if !present(t) {
			continue
		}
		reached = append(reached, int32(u))
		lo, hi := at.RowPtr[u], at.RowPtr[u+1]
		cols, vals, list := at.ColIdx[lo:hi], at.Val[lo:hi], s.pred[lo:hi]
		// Branch-free, because whether an edge is tight is not predictable:
		// every j is written to the list, only a hit advances past it.
		var k int32
		for y, j := range cols {
			var hit int32
			// An absent T(s,j) is +∞ and can never pass.
			//lint:allow floateq same expression as the relaxation that produced T(s,u).w
			if trow[j].W+vals[y] == t.W {
				hit = 1
			}
			list[k] = j
			k += hit
			children[j] += hit
		}
		npred[u] = k
		ops += hi - lo
	}

	// Leaves have no children to wait for: they report 1/σ̄.
	col, pv := s.col[1][:0], s.pval[1][:0]
	for _, j := range reached {
		if children[j] == 0 {
			col, pv = append(col, j), append(pv, 1/trow[j].M)
			children[j] = -1
		}
	}

	for next := 0; len(col) > 0; next = 1 - next {
		rounds++
		if rounds > limit {
			break
		}
		ops += s.pull(at, col, pv)
		col, pv = s.settle(trow, zrow, next)
	}
	return ops, rounds
}

// pull reports the factor pv[x] of each frontier vertex u = col[x] to u's
// tight predecessors: centpath × weight under ⊗ with the Brandes action,
// restricted to the edges the screen accepts. ops is the product's nominal
// size, the whole Aᵀ row of every frontier vertex.
func (s *rowScratch) pull(at *sparse.CSR[float64], col []int32, pv []float64) (ops int64) {
	spa, occ, touched, children, pred, npred := s.rspa, s.occ, s.touched, s.children, s.pred, s.npred
	for x, u := range col {
		fp := pv[x]
		lo := at.RowPtr[u]
		ops += at.RowPtr[u+1] - lo
		for _, j := range pred[lo : lo+int64(npred[u])] {
			children[j]--
			word, bit := &occ[j>>6], uint64(1)<<(uint(j)&63)
			if *word&bit == 0 {
				*word |= bit
				touched = append(touched, j)
				spa[j] = fp
				continue
			}
			spa[j] += fp
		}
	}
	s.touched = touched
	return ops
}

// settle drains the accumulator into zrow: each touched pair adds the
// round's factor and takes the reports off its counter. Entries whose
// counter just reached zero — all children reported — are emitted into
// frontier buffer next with factor ζ + 1/σ̄ and marked done.
func (s *rowScratch) settle(trow []algebra.MultPath, zrow []float64, next int) ([]int32, []float64) {
	col, pv := s.col[next][:0], s.pval[next][:0]
	spa, children := s.rspa, s.children
	for _, j := range s.drainOrder() {
		zrow[j] += spa[j]
		if children[j] == 0 {
			col, pv = append(col, j), append(pv, zrow[j]+1/trow[j].M)
			children[j] = -1
		}
	}
	return col, pv
}

// tally is the work one block of rows did: products summed, rounds of each
// sweep maximized (a sweep's iteration count is that of its slowest row).
type tally struct {
	ops      int64
	itF, itB int
}

func (t *tally) merge(r tally) {
	t.ops += r.ops
	t.itF, t.itB = max(t.itF, r.itF), max(t.itB, r.itB)
}

// sweep runs row(scratch, i) for every row of the batch, rows partitioned
// once into contiguous blocks with a private rowScratch per worker, and
// merges the blocks' tallies. workers <= 0 selects GOMAXPROCS.
func (ws *workspace) sweep(nb, n, workers int, row func(s *rowScratch, i int) tally) tally {
	blocks := min(parallel.Resolve(workers), nb)
	if len(ws.rows) < blocks {
		ws.rows = append(ws.rows, make([]rowScratch, blocks-len(ws.rows))...)
	}
	parts := make([]tally, blocks)
	parallel.For(blocks, nb, func(part, lo, hi int) {
		s := &ws.rows[part]
		s.size(n)
		for i := lo; i < hi; i++ {
			parts[part].merge(row(s, i))
		}
	})
	var total tally
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// checkConverged panics, on the caller's goroutine, when a sweep gave up.
func checkConverged(r tally, limit int) {
	if r.itF > limit {
		panic("core: MFBF failed to converge; the graph has a nonpositive-weight cycle")
	}
	if r.itB > limit {
		panic("core: MFBr failed to converge; inconsistent shortest-path DAG")
	}
}

// exportT builds the CSR matrix of the present pairs of an nb×n T slab,
// sized exactly.
func exportT(t []algebra.MultPath, nb, n int) *sparse.CSR[algebra.MultPath] {
	out := &sparse.CSR[algebra.MultPath]{Rows: nb, Cols: n, RowPtr: make([]int64, nb+1)}
	nnz := 0
	for i := 0; i < nb; i++ {
		for _, c := range t[i*n : (i+1)*n] {
			if present(c) {
				nnz++
			}
		}
		out.RowPtr[i+1] = int64(nnz)
	}
	out.ColIdx = make([]int32, 0, nnz)
	out.Val = make([]algebra.MultPath, 0, nnz)
	for i := 0; i < nb; i++ {
		for j, c := range t[i*n : (i+1)*n] {
			if present(c) {
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, c)
			}
		}
	}
	return out
}

// MFBF (Algorithm 1) computes, for each source s in sources and every
// vertex v, the multpath T(s,v) = (τ(s,v), σ̄(s,v)): shortest-path distance
// and multiplicity. Rows of T are indexed by source position; columns by
// vertex. Unreachable pairs and the source diagonal are absent (the sparse
// zero (∞,0)): a walk that returns to its source is never shortest under
// strictly positive weights.
//
// It returns T together with the number of monoid operations performed and
// the number of Bellman-Ford iterations (frontier relaxation rounds).
func MFBF(a *sparse.CSR[float64], sources []int32) (*sparse.CSR[algebra.MultPath], int64, int) {
	return MFBFParallel(a, sources, 1)
}

// MFBFParallel is MFBF with the source rows blocked across workers; its
// output is identical to MFBF for every worker count. workers <= 0 selects
// GOMAXPROCS.
func MFBFParallel(a *sparse.CSR[float64], sources []int32, workers int) (*sparse.CSR[algebra.MultPath], int64, int) {
	nb, n, limit := len(sources), a.Cols, a.Rows+1
	ws := workspaces.Get().(*workspace)
	ws.t = grow(ws.t, nb*n)
	r := ws.sweep(nb, n, workers, func(s *rowScratch, i int) tally {
		ops, it := s.forwardRow(a, sources[i], ws.t[i*n:(i+1)*n], limit)
		return tally{ops: ops, itF: it}
	})
	checkConverged(r, limit)
	t := exportT(ws.t, nb, n)
	workspaces.Put(ws)
	return t, r.ops, r.itF
}

// MFBrParallel (Algorithm 2, MFBr) back-propagates partial centrality
// factors ζ(s,v) = δ(s,v)/σ̄(s,v) over the shortest-path DAG encoded by T.
// The returned centpath matrix Z has exactly T's sparsity pattern with
// Z(s,v).P = ζ(s,v) and Z(s,v).C the counter the sweep left (−1: reported).
// The source rows are blocked across workers; the output is identical for
// every worker count.
func MFBrParallel(at *sparse.CSR[float64], t *sparse.CSR[algebra.MultPath], sources []int32, workers int) (*sparse.CSR[algebra.CentPath], int64, int) {
	if t.Cols != at.Rows {
		panic(fmt.Sprintf("core: dimension mismatch %dx%d * %dx%d", t.Rows, t.Cols, at.Rows, at.Cols))
	}
	nb, n, limit := t.Rows, at.Cols, at.Rows+1
	z := &sparse.CSR[algebra.CentPath]{Rows: nb, Cols: n, Val: make([]algebra.CentPath, t.NNZ()),
		RowPtr: slices.Clone(t.RowPtr), ColIdx: slices.Clone(t.ColIdx)}
	ws := workspaces.Get().(*workspace)
	ws.t, ws.z = grow(ws.t, nb*n), grow(ws.z, nb*n)
	r := ws.sweep(nb, n, workers, func(s *rowScratch, i int) tally {
		trow, zrow := ws.t[i*n:(i+1)*n], ws.z[i*n:(i+1)*n]
		resetRow(trow)
		cols, vals := t.Row(i)
		for k, j := range cols {
			trow[j] = vals[k]
		}
		ops, it := s.backwardRow(at, trow, zrow, limit)
		// The counters are the scratch of the row in hand: export them now.
		_, out := z.Row(i)
		for k, j := range cols {
			out[k] = algebra.CentPath{W: vals[k].W, P: zrow[j], C: int64(s.children[j])}
		}
		return tally{ops: ops, itB: it}
	})
	checkConverged(r, limit)
	workspaces.Put(ws)
	return z, r.ops, r.itB
}

// Result carries the output of an MFBC run along with work statistics.
type Result struct {
	BC         []float64
	Ops        int64 // generalized multiply operations (ops(A,B) measure)
	Iterations int   // total frontier relaxation rounds across both phases and all batches
	Batches    int
}

// MFBC (Algorithm 3) computes betweenness centrality over g from the given
// sources: nil means every vertex (the exact scores); an explicit list
// leaves the partial sums Σ_{s∈sources} δ(s,·) in BC.
func MFBC(g *graph.Graph, sources []int32, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := g.Adjacency()
	return SweepSources(a, sparse.Transpose(a), sources, opt), nil
}

// SweepSources is the batching loop of Algorithm 3 over prebuilt operands:
// it sweeps sources (nil = every vertex) in chunks of min(Batch|128,
// len(sources)) and accumulates their dependency contributions. Rows fold
// into BC in source order, so scores do not depend on the chunk size.
func SweepSources(a, at *sparse.CSR[float64], sources []int32, opt Options) *Result {
	if sources == nil {
		sources = make([]int32, a.Rows)
		for s := range sources {
			sources[s] = int32(s)
		}
	}
	res := &Result{BC: make([]float64, a.Rows)}
	nb := opt.batchFor(len(sources))
	for lo := 0; lo < len(sources); lo += nb {
		res.Batches++
		ops, iters := MFBCBatchParallel(a, at, sources[lo:min(lo+nb, len(sources))], res.BC, opt.Workers)
		res.Ops += ops
		res.Iterations += iters
	}
	return res
}

// MFBCBatchParallel runs a single batch for the given sources, accumulating
// δ(s,v) = ζ(s,v)·σ̄(s,v) into bc. The source rows are blocked across
// workers: each row runs both sweeps back to back inside the workspace, and
// the fold into bc follows in row order, so scores do not depend on the
// worker count.
func MFBCBatchParallel(a, at *sparse.CSR[float64], sources []int32, bc []float64, workers int) (ops int64, iters int) {
	nb, n, limit := len(sources), a.Cols, a.Rows+1
	ws := workspaces.Get().(*workspace)
	ws.t, ws.z = grow(ws.t, nb*n), grow(ws.z, nb*n)
	r := ws.sweep(nb, n, workers, func(s *rowScratch, i int) tally {
		trow := ws.t[i*n : (i+1)*n]
		opsF, itF := s.forwardRow(a, sources[i], trow, limit)
		if itF > limit {
			return tally{ops: opsF, itF: itF}
		}
		opsB, itB := s.backwardRow(at, trow, ws.z[i*n:(i+1)*n], limit)
		return tally{ops: opsF + opsB, itF: itF, itB: itB}
	})
	checkConverged(r, limit)
	// λ(v) += Σ_s Z(s,v).p · T(s,v).m (Algorithm 3 line 5).
	for i := 0; i < nb; i++ {
		zrow := ws.z[i*n : (i+1)*n]
		for j, t := range ws.t[i*n : (i+1)*n] {
			if present(t) {
				bc[j] += zrow[j] * t.M
			}
		}
	}
	workspaces.Put(ws)
	return r.ops, r.itF + r.itB
}
