// Shared-memory parallel variant of the entry-slice merge. Each rank of
// the simulated machine may call it with its local worker budget; the
// output is required (and tested) to be identical to the sequential
// MergeSorted, so distributed results do not depend on the worker count.
package distmat

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// mergeParallelMin is the size below which the sequential merge wins.
const mergeParallelMin = 1 << 12

// MergeSortedParallel computes the same union merge as MergeSorted by
// splitting the coordinate space at boundaries of a, binary-searching the
// matching positions in b, merging the segment pairs concurrently, and
// concatenating. Output is identical to MergeSorted(a, b, mon) for any
// monoid. workers <= 0 selects GOMAXPROCS.
func MergeSortedParallel[T any](a, b []sparse.Entry[T], mon algebra.Monoid[T], workers int) []sparse.Entry[T] {
	workers = parallel.Resolve(workers)
	if workers <= 1 || len(a)+len(b) < mergeParallelMin || len(a) == 0 || len(b) == 0 {
		return MergeSorted(a, b, mon)
	}
	rs := parallel.Ranges(len(a), workers)
	// cuts[i] is the b-position of segment boundary i: the first entry of b
	// not less than a[rs[i][0]], so equal coordinates land in the same
	// segment as their a counterpart and merge there.
	cuts := make([]int, len(rs)+1)
	for i := 1; i < len(rs); i++ {
		bound := a[rs[i][0]]
		cuts[i] = sort.Search(len(b), func(y int) bool { return !less(b[y], bound) })
	}
	cuts[len(rs)] = len(b)
	parts := make([][]sparse.Entry[T], len(rs))
	parallel.For(len(rs), len(rs), func(part, _, _ int) {
		parts[part] = MergeSorted(a[rs[part][0]:rs[part][1]], b[cuts[part]:cuts[part+1]], mon)
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]sparse.Entry[T], 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
