// Package sparse implements generic sparse matrices (COO and CSR) and the
// generalized sparse matrix-matrix product C = A •⟨⊕,f⟩ B over arbitrary
// element domains, the computational substrate of the MFBC algorithms.
//
// All kernels are sequential; distribution is layered on top by
// internal/distmat and internal/spgemm.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
)

// Entry is one nonzero of a sparse matrix in coordinate form.
type Entry[T any] struct {
	I, J int32
	V    T
}

// COO is a coordinate-format sparse matrix. Entries may be unsorted and may
// contain duplicates until Canonicalize is called.
type COO[T any] struct {
	Rows, Cols int
	E          []Entry[T]
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO[T any](rows, cols int) *COO[T] {
	return &COO[T]{Rows: rows, Cols: cols}
}

// Append adds one entry.
func (a *COO[T]) Append(i, j int32, v T) {
	a.E = append(a.E, Entry[T]{I: i, J: j, V: v})
}

// NNZ returns the number of stored entries (duplicates counted separately).
func (a *COO[T]) NNZ() int { return len(a.E) }

// Clone returns a deep copy.
func (a *COO[T]) Clone() *COO[T] {
	e := make([]Entry[T], len(a.E))
	copy(e, a.E)
	return &COO[T]{Rows: a.Rows, Cols: a.Cols, E: e}
}

// Canonicalize sorts entries by (row, col) and merges duplicates with the
// monoid operation, dropping merged values for which IsZero holds.
func (a *COO[T]) Canonicalize(m algebra.Monoid[T]) {
	if len(a.E) == 0 {
		return
	}
	sort.Slice(a.E, func(x, y int) bool {
		if a.E[x].I != a.E[y].I {
			return a.E[x].I < a.E[y].I
		}
		return a.E[x].J < a.E[y].J
	})
	out := a.E[:0]
	cur := a.E[0]
	for _, e := range a.E[1:] {
		if e.I == cur.I && e.J == cur.J {
			cur.V = m.Op(cur.V, e.V)
			continue
		}
		if !m.IsZero(cur.V) {
			out = append(out, cur)
		}
		cur = e
	}
	if !m.IsZero(cur.V) {
		out = append(out, cur)
	}
	a.E = out
}

// Validate checks that all coordinates are in range.
func (a *COO[T]) Validate() error {
	for _, e := range a.E {
		if e.I < 0 || int(e.I) >= a.Rows || e.J < 0 || int(e.J) >= a.Cols {
			return fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.I, e.J, a.Rows, a.Cols)
		}
	}
	return nil
}

// CSR is a compressed-sparse-row matrix. Column indices within each row are
// sorted ascending and unique.
type CSR[T any] struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []T
}

// NNZ returns the number of stored nonzeros.
func (a *CSR[T]) NNZ() int { return len(a.ColIdx) }

// Row returns the column indices and values of row i as shared slices.
func (a *CSR[T]) Row(i int) ([]int32, []T) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Get returns the value at (i, j) and whether it is stored, using binary
// search within the row.
func (a *CSR[T]) Get(i, j int32) (T, bool) {
	cols, vals := a.Row(int(i))
	k := sort.Search(len(cols), func(x int) bool { return cols[x] >= j })
	if k < len(cols) && cols[k] == j {
		return vals[k], true
	}
	var zero T
	return zero, false
}

// FromCOO builds a CSR matrix from a (possibly unsorted, duplicated) COO
// matrix, merging duplicates with the monoid.
func FromCOO[T any](a *COO[T], m algebra.Monoid[T]) *CSR[T] {
	c := a.Clone()
	c.Canonicalize(m)
	out := &CSR[T]{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int64, c.Rows+1),
		ColIdx: make([]int32, 0, len(c.E)),
		Val:    make([]T, 0, len(c.E)),
	}
	for _, e := range c.E {
		out.RowPtr[e.I+1]++
	}
	for i := 0; i < c.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	for _, e := range c.E {
		out.ColIdx = append(out.ColIdx, e.J)
		out.Val = append(out.Val, e.V)
	}
	return out
}

// ToCOO converts back to coordinate form.
func (a *CSR[T]) ToCOO() *COO[T] {
	out := NewCOO[T](a.Rows, a.Cols)
	out.E = make([]Entry[T], 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			out.E = append(out.E, Entry[T]{I: int32(i), J: j, V: vals[k]})
		}
	}
	return out
}

// Transpose returns Aᵀ.
func Transpose[T any](a *CSR[T]) *CSR[T] {
	out := &CSR[T]{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int64, a.Cols+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]T, a.NNZ()),
	}
	for _, j := range a.ColIdx {
		out.RowPtr[j+1]++
	}
	for i := 0; i < a.Cols; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := make([]int64, a.Cols)
	for i := range next {
		next[i] = out.RowPtr[i]
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			pos := next[j]
			out.ColIdx[pos] = int32(i)
			out.Val[pos] = vals[k]
			next[j]++
		}
	}
	return out
}

// Mul computes the generalized sparse matrix product
//
//	C(i,j) = ⊕_k f(A(i,k), B(k,j))
//
// using Gustavson's row-wise algorithm with a sparse accumulator. It returns
// C and the number of f evaluations performed (the ops(A,B) measure of the
// paper's cost analysis).
func Mul[TA, TB, TC any](a *CSR[TA], b *CSR[TB], f func(TA, TB) TC, add algebra.Monoid[TC]) (*CSR[TC], int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	colIdx, val, rowNNZ, ops := mulRowRange(a, b, 0, a.Rows, f, add)
	out := &CSR[TC]{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1), ColIdx: colIdx, Val: val}
	for i, nnz := range rowNNZ {
		out.RowPtr[i+1] = out.RowPtr[i] + nnz
	}
	return out, ops
}

// mulRowRange runs Gustavson's kernel with a sparse accumulator over rows
// [lo, hi) of a, returning the concatenated column indices and values, the
// per-row nonzero counts, and the number of f evaluations. Mul, its only
// caller, runs it once over all rows.
func mulRowRange[TA, TB, TC any](a *CSR[TA], b *CSR[TB], lo, hi int, f func(TA, TB) TC, add algebra.Monoid[TC]) ([]int32, []TC, []int64, int64) {
	var (
		colIdx []int32
		val    []TC
	)
	rowNNZ := make([]int64, hi-lo)
	spa := make([]TC, b.Cols)
	occupied := make([]bool, b.Cols)
	var touched []int32
	var ops int64
	for i := lo; i < hi; i++ {
		acols, avals := a.Row(i)
		touched = touched[:0]
		for k, ak := range acols {
			av := avals[k]
			bcols, bvals := b.Row(int(ak))
			for x, j := range bcols {
				v := f(av, bvals[x])
				ops++
				if occupied[j] {
					spa[j] = add.Op(spa[j], v)
				} else {
					spa[j] = v
					occupied[j] = true
					touched = append(touched, j)
				}
			}
		}
		sort.Slice(touched, func(x, y int) bool { return touched[x] < touched[y] })
		nnzBefore := len(colIdx)
		for _, j := range touched {
			if !add.IsZero(spa[j]) {
				colIdx = append(colIdx, j)
				val = append(val, spa[j])
			}
			occupied[j] = false
		}
		rowNNZ[i-lo] = int64(len(colIdx) - nnzBefore)
	}
	return colIdx, val, rowNNZ, ops
}

// EWise merges two same-shaped matrices elementwise with the monoid
// operation (a union merge: entries present in only one operand pass
// through).
func EWise[T any](a, b *CSR[T], m algebra.Monoid[T]) *CSR[T] {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: ewise shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := &CSR[T]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) || y < len(bc) {
			var j int32
			var v T
			switch {
			case y >= len(bc) || (x < len(ac) && ac[x] < bc[y]):
				j, v = ac[x], av[x]
				x++
			case x >= len(ac) || bc[y] < ac[x]:
				j, v = bc[y], bv[y]
				y++
			default:
				j = ac[x]
				v = m.Op(av[x], bv[y])
				x++
				y++
			}
			if !m.IsZero(v) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Map transforms every entry of a in place-like fashion, returning a new
// matrix; entries mapped to monoid zero are dropped.
func Map[T, U any](a *CSR[T], m algebra.Monoid[U], fn func(i, j int32, v T) U) *CSR[U] {
	out := &CSR[U]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			u := fn(int32(i), j, vals[k])
			if !m.IsZero(u) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, u)
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Mask filters a against the sparsity pattern of m: with keep=true the
// entries of a whose coordinates are present in m survive; with keep=false
// those entries are dropped (an anti-mask).
func Mask[T, U any](a *CSR[T], m *CSR[U], keep bool) *CSR[T] {
	if a.Rows != m.Rows || a.Cols != m.Cols {
		panic(fmt.Sprintf("sparse: mask shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, m.Rows, m.Cols))
	}
	out := &CSR[T]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		mc, _ := m.Row(i)
		y := 0
		for x, j := range ac {
			for y < len(mc) && mc[y] < j {
				y++
			}
			present := y < len(mc) && mc[y] == j
			if present == keep {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, av[x])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// ZipJoin walks the entries present in both a and b (an intersection merge)
// and calls visit for each common coordinate.
func ZipJoin[T, U any](a *CSR[T], b *CSR[U], visit func(i, j int32, x T, y U)) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: zipjoin shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				x++
			case bc[y] < ac[x]:
				y++
			default:
				visit(int32(i), ac[x], av[x], bv[y])
				x++
				y++
			}
		}
	}
}

// Equal reports whether two matrices have identical structure and, per the
// provided predicate, equal values.
func Equal[T any](a, b *CSR[T], eq func(T, T) bool) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if len(ac) != len(bc) {
			return false
		}
		for k := range ac {
			if ac[k] != bc[k] || !eq(av[k], bv[k]) {
				return false
			}
		}
	}
	return true
}
