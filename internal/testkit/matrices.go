package testkit

import (
	"slices"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// DistRowBlock splits rows into p contiguous blocks. Each call builds its
// own table: two calls give equal distributions in separate storage.
func DistRowBlock(p, rows int) distmat.Dist {
	return distmat.NewDist(p, distmat.Owners{Row: blocks(p, rows)})
}

// DistColBlock splits columns into p contiguous blocks.
func DistColBlock(p, cols int) distmat.Dist {
	return distmat.NewDist(p, distmat.Owners{Col: blocks(p, cols)})
}

// blocks returns the block of each of n items split into p contiguous
// blocks.
func blocks(p, n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = int32(distmat.Part(int32(i), n, p))
	}
	return t
}

// MergeRuns merges any number of (row, col)-sorted duplicate-free runs into
// one sorted duplicate-free slice: distmat.MergeSorted generalized from two runs to
// k. Coordinates shared by several runs fold with the monoid in run order
// and drop when the fold is zero. With at most one non-empty run the result
// is that run itself, not a copy. No production path merges runs that share
// coordinates: MergeRuns is the tests' reference for distmat.MergeDisjoint,
// and defines what a shared coordinate would fold to.
func MergeRuns[T any](runs [][]sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
	// heap orders the runs' unmerged remainders by their next coordinate,
	// then by run.
	type cursor struct {
		key  uint64
		run  int
		rest []sparse.Entry[T]
	}
	var heap []cursor
	total := 0
	for r, run := range runs {
		if len(run) > 0 {
			heap = append(heap, cursor{distmat.CoordKey(run[0].I, run[0].J), r, run})
			total += len(run)
		}
	}
	if len(heap) == 0 {
		return nil
	}
	if len(heap) == 1 {
		return heap[0].rest
	}
	before := func(a, b cursor) bool { return a.key < b.key || (a.key == b.key && a.run < b.run) }
	down := func(x int) {
		for c := 2*x + 1; c < len(heap); x, c = c, 2*c+1 {
			if c+1 < len(heap) && before(heap[c+1], heap[c]) {
				c++
			}
			if !before(heap[c], heap[x]) {
				return
			}
			heap[x], heap[c] = heap[c], heap[x]
		}
	}
	for x := len(heap)/2 - 1; x >= 0; x-- {
		down(x)
	}
	out := make([]sparse.Entry[T], 0, total)
	last, folded := ^uint64(0), false // out's last coordinate; whether it is a fold
	dropZeroFold := func() {
		if folded && mon.IsZero(out[len(out)-1].V) {
			out = out[:len(out)-1]
		}
	}
	for len(heap) > 0 {
		top := &heap[0]
		if e := top.rest[0]; top.key == last {
			out[len(out)-1].V = mon.Op(out[len(out)-1].V, e.V)
			folded = true
		} else {
			dropZeroFold()
			out, last, folded = append(out, e), top.key, false
		}
		if top.rest = top.rest[1:]; len(top.rest) > 0 {
			top.key = distmat.CoordKey(top.rest[0].I, top.rest[0].J)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	dropZeroFold()
	return out
}

// Gather collects the full matrix at every rank (cost charged as an
// allgather).
func Gather[T any](c *machine.Comm, m *distmat.Mat[T], mon algebra.Monoid[T]) *sparse.CSR[T] {
	all := AllgatherConcat(c, m.Local)
	coo := &sparse.COO[T]{Rows: m.Rows, Cols: m.Cols, E: all}
	return sparse.FromCOO(coo, mon)
}

// AllgatherConcat is machine.Allgather flattened into one slice, built in
// one pass over the posted parts.
func AllgatherConcat[T any](c *machine.Comm, data []T) []T {
	var out []T
	machine.AllgatherRecv(c, data, func(parts [][]T) { out = slices.Concat(parts...) })
	return out
}

// ZipJoin walks the entries present in both a and b (an intersection merge)
// and calls visit for each common coordinate.
func ZipJoin[T, U any](a *sparse.CSR[T], b *sparse.CSR[U], visit func(i, j int32, x T, y U)) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("testkit: zipjoin shape mismatch")
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
func Equal[T any](a, b *sparse.CSR[T], eq func(T, T) bool) bool {
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
