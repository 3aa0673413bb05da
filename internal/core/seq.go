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
//   - T is a dense nb×n slab of multpaths; (+∞, 0) marks an absent pair
//     (unreachable, or the suppressed source diagonal). Z is a slab of the
//     same shape holding (ζ partial, child counter) and is present exactly
//     where T is; Z's weight is never stored because it always equals T's.
//     Together 32 B·nb·n, which is what the CSR T and Z of the
//     matrix-per-round form already held on a connected graph (20 + 28
//     bytes per reachable pair), without their per-round copies.
//   - Each worker owns a rowScratch: the sparse accumulators, their
//     occupancy bitset and touched list, and two frontier buffers it
//     alternates between. All are sized by n once and reused across rows,
//     rounds and batches.
//
// Rows of the batch never interact, so a worker takes each of its rows to
// convergence before the next (forwardRow, backwardRow): the T row, the Z
// row and the accumulator stay cache-resident for all of a row's rounds,
// the iteration count of a sweep is the maximum over rows and its op count
// the sum. One round multiplies the row's frontier list into the
// accumulator and then drains the accumulator in column order, and every
// step that used to be a whole-matrix pass happens in that drain — the
// diagonal drop, the merge into the slab, the weight screen, and the
// emission of the next frontier — so a round costs O(products + touched)
// rather than O(nnz(T)). Because the T row is at hand during the product, a
// contribution already strictly worse than T's accumulated weight (forward)
// or strictly below it (backward) is dropped before it reaches the
// accumulator; the drain would have discarded it, so results and op counts
// are unchanged. CSR appears only at the MFBF/MFBr API boundary (one
// exact-size export, one import); MFBC and MFBCBatchParallel never build
// one.
package core

import (
	"fmt"
	"math"
	"math/bits"
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

// zcell is Z(s,v) without its weight: the partial centrality factor and the
// count of shortest-path-DAG children that have not reported yet.
type zcell struct {
	P float64
	C int64
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
	z    []zcell
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
// sweep (mspa forward, cspa backward), the occupancy bitset and touched
// list they share, and the double-buffered frontier — column indices with
// multpaths (forward) or ζ factors (backward) alongside.
type rowScratch struct {
	occ     []uint64
	touched []int32
	mspa    []algebra.MultPath
	cspa    []algebra.CentPath
	col     [2][]int32
	mval    [2][]algebra.MultPath
	pval    [2][]float64
}

func (s *rowScratch) size(n int) {
	s.occ = grow(s.occ, (n+63)/64)
	s.touched = grow(s.touched, n)[:0]
	s.mspa, s.cspa = grow(s.mspa, n), grow(s.cspa, n)
	for b := range s.col {
		s.col[b] = grow(s.col[b], n)
		s.mval[b] = grow(s.mval[b], n)
		s.pval[b] = grow(s.pval[b], n)
	}
}

// drainOrder returns the columns the last product touched in ascending
// order and clears their occupancy. A short touched list is sorted; once it
// is at least as long as the bitset has words (n/64 — a property of the
// round, not a setting), scanning the words costs no more than one step per
// touched column and replaces the sort. The returned slice is the touched
// list's storage and is valid until the next product.
func (s *rowScratch) drainOrder() []int32 {
	t := s.touched
	if len(t) >= len(s.occ) {
		t = t[:0]
		for w, word := range s.occ {
			for ; word != 0; word &= word - 1 {
				t = append(t, int32(w<<6+bits.TrailingZeros64(word)))
			}
			s.occ[w] = 0
		}
	} else {
		slices.Sort(t)
		for _, j := range t {
			s.occ[j>>6] = 0
		}
	}
	s.touched = t[:0]
	return t
}

// forwardRow runs MFBF (Algorithm 1) for one source into trow, its row of
// the T slab. Each round extends the frontier by one edge (multpath ×
// weight under ⊕ with the Bellman-Ford action, the cases of
// algebra.MultPathPlus spelled in place) and drains the accumulator into
// trow. It returns the products performed and the rounds run, giving up
// once rounds exceeds limit.
func (s *rowScratch) forwardRow(a *sparse.CSR[float64], src int32, trow []algebra.MultPath, limit int) (ops int64, rounds int) {
	resetRow(trow)
	cur := 0
	col, val := s.col[cur][:0], s.mval[cur][:0]
	acols, avals := a.Row(int(src))
	for k, v := range acols {
		e := algebra.MultPath{W: avals[k], M: 1}
		if v == src || algebra.MultPathIsZero(e) {
			continue
		}
		trow[v] = e
		col, val = append(col, v), append(val, e)
	}

	spa, occ := s.mspa, s.occ
	for len(col) > 0 {
		rounds++
		if rounds > limit {
			break
		}
		touched := s.touched
		for x, k := range col {
			f := val[x]
			bcols, bvals := a.Row(int(k))
			ops += int64(len(bcols))
			for y, j := range bcols {
				w := f.W + bvals[y]
				// Strictly worse than the accumulated path: it can neither
				// lower T nor tie with it, so the drain would discard it.
				if trow[j].W < w {
					continue
				}
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

		cur = 1 - cur
		col, val = s.col[cur][:0], s.mval[cur][:0]
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
			// whose weight matches the accumulated T; ties carry only the
			// newly discovered multiplicity forward.
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if e.W == t.W && e.M > 0 {
				col, val = append(col, j), append(val, e)
			}
		}
	}
	return ops, rounds
}

// backwardRow runs MFBr (Algorithm 2) for one source over its converged T
// row, leaving ζ(s,v) = δ(s,v)/σ̄(s,v) in zrow wherever trow is present.
//
// As discussed in DESIGN.md §3, counters are initialized to the number of
// shortest-path-DAG children of each (s,v) pair (the semantics Lemma 4.2
// requires) by one product of the whole T row with Aᵀ; leaves seed the
// first frontier. It returns the products performed (child counting
// included) and the back-propagation rounds run, giving up once rounds
// exceeds limit.
func (s *rowScratch) backwardRow(at *sparse.CSR[float64], trow []algebra.MultPath, zrow []zcell, limit int) (ops int64, rounds int) {
	clear(zrow)
	cur := 0
	col, pv := s.col[cur][:0], s.pval[cur][:0]
	for j, t := range trow {
		if present(t) {
			col, pv = append(col, int32(j)), append(pv, 0)
		}
	}
	ops = s.pull(at, trow, col, pv, 1)
	s.settle(trow, zrow, 1-cur) // counters only: a child count is ≥ 1, nothing is emitted

	// Leaves have no children to wait for: they report (T.w, 1/σ̄, −1).
	all := col
	cur = 1 - cur
	col, pv = s.col[cur][:0], s.pval[cur][:0]
	for _, j := range all {
		if z := &zrow[j]; z.C == 0 {
			col, pv = append(col, j), append(pv, z.P+1/trow[j].M)
			z.C = -1
		}
	}

	for len(col) > 0 {
		rounds++
		if rounds > limit {
			break
		}
		ops += s.pull(at, trow, col, pv, -1)
		cur = 1 - cur
		col, pv = s.settle(trow, zrow, cur)
	}
	return ops, rounds
}

// pull multiplies the centpaths (T(s,u).w, pv[x], c) at columns u = col[x]
// into the accumulator: centpath × weight under ⊗ with the Brandes action,
// the cases of algebra.CentPathTimes spelled in place.
func (s *rowScratch) pull(at *sparse.CSR[float64], trow []algebra.MultPath, col []int32, pv []float64, c int64) (ops int64) {
	spa, occ, touched := s.cspa, s.occ, s.touched
	for x, u := range col {
		fw, fp := trow[u].W, pv[x]
		bcols, bvals := at.Row(int(u))
		ops += int64(len(bcols))
		for y, j := range bcols {
			w := fw - bvals[y]
			// Below T(s,j).w (or T(s,j) absent, +∞): it cannot be the
			// maximum the screen accepts, so settle would discard it.
			if w < trow[j].W {
				continue
			}
			word, bit := &occ[j>>6], uint64(1)<<(uint(j)&63)
			if *word&bit == 0 {
				*word |= bit
				touched = append(touched, j)
				spa[j] = algebra.CentPath{W: w, P: fp, C: c}
				continue
			}
			switch acc := &spa[j]; {
			case acc.W > w:
			case acc.W < w:
				*acc = algebra.CentPath{W: w, P: fp, C: c}
			default:
				acc.P += fp
				acc.C += c
			}
		}
	}
	s.touched = touched
	return ops
}

// settle drains the accumulator into zrow: a contribution survives only at
// a pair present in T whose weight it matches exactly (everything else is
// a spurious back-propagation artifact), where it adds its factor and
// counter. Entries whose counter just reached zero — all children reported
// — are emitted into frontier buffer next as (T.w, ζ + 1/σ̄, −1) and marked
// done.
func (s *rowScratch) settle(trow []algebra.MultPath, zrow []zcell, next int) ([]int32, []float64) {
	col, pv := s.col[next][:0], s.pval[next][:0]
	spa := s.cspa
	for _, j := range s.drainOrder() {
		e, t := spa[j], trow[j]
		//lint:allow floateq screening requires an exact match of bit-identically replicated weights
		if algebra.CentPathIsZero(e) || !present(t) || e.W != t.W {
			continue
		}
		z := &zrow[j]
		z.P += e.P
		z.C += e.C
		if z.C == 0 {
			col, pv = append(col, j), append(pv, z.P+1/t.M)
			z.C = -1
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

// exportCSR builds the CSR matrix with T's pattern whose value at slab
// index k is at(k), sized exactly.
func exportCSR[V any](t []algebra.MultPath, nb, n int, at func(k int) V) *sparse.CSR[V] {
	out := &sparse.CSR[V]{Rows: nb, Cols: n, RowPtr: make([]int64, nb+1)}
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
	out.Val = make([]V, 0, nnz)
	for i := 0; i < nb; i++ {
		for j, c := range t[i*n : (i+1)*n] {
			if present(c) {
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, at(i*n+j))
			}
		}
	}
	return out
}

// MFBF (Algorithm 1) computes, for each source s in sources and every
// vertex v, the multpath T(s,v) = (τ(s,v), σ̄(s,v)): shortest-path distance
// and multiplicity. Rows of T are indexed by source position; columns by
// vertex. Unreachable pairs and the source diagonal are absent (the sparse
// zero (∞,0)); see DESIGN.md §3 for the diagonal-suppression argument.
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
	t := exportCSR(ws.t, nb, n, func(k int) algebra.MultPath { return ws.t[k] })
	workspaces.Put(ws)
	return t, r.ops, r.itF
}

// MFBr (Algorithm 2) back-propagates partial centrality factors
// ζ(s,v) = δ(s,v)/σ̄(s,v) over the shortest-path DAG encoded by T. The
// returned centpath matrix Z has exactly T's sparsity pattern with
// Z(s,v).P = ζ(s,v).
func MFBr(at *sparse.CSR[float64], t *sparse.CSR[algebra.MultPath], sources []int32) (*sparse.CSR[algebra.CentPath], int64, int) {
	return MFBrParallel(at, t, sources, 1)
}

// MFBrParallel is MFBr with the source rows blocked across workers; output
// identical to MFBr for every worker count.
func MFBrParallel(at *sparse.CSR[float64], t *sparse.CSR[algebra.MultPath], sources []int32, workers int) (*sparse.CSR[algebra.CentPath], int64, int) {
	if t.Cols != at.Rows {
		panic(fmt.Sprintf("core: dimension mismatch %dx%d * %dx%d", t.Rows, t.Cols, at.Rows, at.Cols))
	}
	nb, n, limit := t.Rows, at.Cols, at.Rows+1
	ws := workspaces.Get().(*workspace)
	ws.t, ws.z = grow(ws.t, nb*n), grow(ws.z, nb*n)
	r := ws.sweep(nb, n, workers, func(s *rowScratch, i int) tally {
		trow := ws.t[i*n : (i+1)*n]
		resetRow(trow)
		cols, vals := t.Row(i)
		for k, j := range cols {
			trow[j] = vals[k]
		}
		ops, it := s.backwardRow(at, trow, ws.z[i*n:(i+1)*n], limit)
		return tally{ops: ops, itB: it}
	})
	checkConverged(r, limit)
	z := exportCSR(ws.t, nb, n, func(k int) algebra.CentPath {
		return algebra.CentPath{W: ws.t[k].W, P: ws.z[k].P, C: ws.z[k].C}
	})
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

// MFBCBatch runs a single batch for the given sources, accumulating
// δ(s,v) = ζ(s,v)·σ̄(s,v) into bc. Used by the benchmark harness.
func MFBCBatch(a, at *sparse.CSR[float64], sources []int32, bc []float64) (ops int64, iters int) {
	return MFBCBatchParallel(a, at, sources, bc, 1)
}

// MFBCBatchParallel is MFBCBatch with the source rows blocked across
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
				bc[j] += zrow[j].P * t.M
			}
		}
	}
	workspaces.Put(ws)
	return r.ops, r.itF + r.itB
}
