package baseline

import (
	"repro/internal/algebra"
	"repro/internal/sparse"
)

// CombBLASBatch is the batched algebraic Brandes formulation used by the
// CombBLAS BC code the paper benchmarks against: BFS levels expressed as
// sparse matrix products over the counting semiring on the forward sweep
// (storing every level's frontier), followed by a level-by-level backward
// dependency sweep. Like CombBLAS, it is correct only on unweighted graphs.
//
// It runs one forward+backward sweep for the given sources, accumulating
// dependencies into bc: a single batch, timed the way the paper's Table 3
// does.
func CombBLASBatch(a, at *sparse.CSR[float64], sources []int32, bc []float64) {
	count := algebra.CountMonoid()
	n := a.Rows
	nb := len(sources)
	// Forward BFS sweep over the counting semiring: frontier_{l+1}(s,v) =
	// Σ_u frontier_l(s,u)·[edge u→v], restricted to unvisited vertices.
	f0 := sparse.NewCOO[float64](nb, n)
	for s, src := range sources {
		f0.Append(int32(s), src, 1)
	}
	frontier := sparse.FromCOO(f0, count)
	nsp := frontier // σ̄: number of shortest paths discovered so far
	levels := []*sparse.CSR[float64]{frontier}
	for frontier.NNZ() > 0 {
		next, _ := sparse.Mul(frontier, a, func(x, _ float64) float64 { return x }, count)
		next = sparse.Mask(next, nsp, false)
		if next.NNZ() == 0 {
			break
		}
		nsp = sparse.EWise(nsp, next, count)
		levels = append(levels, next)
		frontier = next
	}
	// Backward dependency sweep, deepest level first:
	//   u = ((level_l ∘ (1+δ)/σ̄) · Aᵀ) ∘ level_{l-1} ∘ σ̄
	delta := &sparse.CSR[float64]{Rows: nb, Cols: n, RowPtr: make([]int64, nb+1)}
	for l := len(levels) - 1; l >= 1; l-- {
		w := sparse.Map(levels[l], count, func(i, j int32, _ float64) float64 {
			d, _ := delta.Get(i, j)
			ns, _ := nsp.Get(i, j)
			return (1 + d) / ns
		})
		u, _ := sparse.Mul(w, at, func(x, _ float64) float64 { return x }, count)
		u = sparse.Mask(u, levels[l-1], true)
		u = sparse.Map(u, count, func(i, j int32, v float64) float64 {
			ns, _ := nsp.Get(i, j)
			return v * ns
		})
		delta = sparse.EWise(delta, u, count)
	}
	for s := range sources {
		cols, vals := delta.Row(s)
		for k, col := range cols {
			if col != sources[s] {
				bc[col] += vals[k]
			}
		}
	}
}
