// Package distmat provides sparse matrices distributed over the simulated
// machine: each processor holds the entries a distribution function assigns
// to it (global coordinates), and redistribution between arbitrary
// distributions is a single personalized all-to-all — the sparse-to-sparse
// redistribution kernel of CTF (§6.2).
package distmat

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Dist assigns every matrix coordinate to exactly one world rank. Key
// identifies the distribution: matrices with equal keys have co-located
// entries, the precondition for local elementwise operations.
type Dist struct {
	Key   string
	P     int
	Owner func(i, j int32) int
}

// Part computes the contiguous partition of n items into p parts (first
// n%p parts one larger) and returns the part index of item i.
func Part(i int32, n, p int) int {
	q, r := n/p, n%p
	big := int32(r * (q + 1))
	if i < big {
		return int(i) / (q + 1)
	}
	if q == 0 {
		return p - 1
	}
	return r + (int(i)-int(big))/q
}

// PartBounds returns the [lo, hi) item range of part idx.
func PartBounds(idx, n, p int) (int32, int32) {
	q, r := n/p, n%p
	if idx < r {
		return int32(idx * (q + 1)), int32((idx + 1) * (q + 1))
	}
	lo := r*(q+1) + (idx-r)*q
	return int32(lo), int32(lo + q)
}

// DistRowBlock splits rows into p contiguous blocks.
func DistRowBlock(p, rows int) Dist {
	return Dist{
		Key:   fmt.Sprintf("rowblock(p=%d,rows=%d)", p, rows),
		P:     p,
		Owner: func(i, _ int32) int { return Part(i, rows, p) },
	}
}

// DistColBlock splits columns into p contiguous blocks.
func DistColBlock(p, cols int) Dist {
	return Dist{
		Key:   fmt.Sprintf("colblock(p=%d,cols=%d)", p, cols),
		P:     p,
		Owner: func(_, j int32) int { return Part(j, cols, p) },
	}
}

// DistShard spreads entries pseudo-randomly (used as the neutral input
// distribution before a plan-specific redistribution).
func DistShard(p int) Dist {
	return Dist{
		Key: fmt.Sprintf("shard(p=%d)", p),
		P:   p,
		Owner: func(i, j int32) int {
			h := uint64(uint32(i))*0x9E3779B1 ^ uint64(uint32(j))*0x85EBCA77
			h ^= h >> 33
			return int(h % uint64(p))
		},
	}
}

// Mat is one processor's view of a distributed sparse matrix: the entries
// the distribution assigns to this rank, kept sorted by (row, col) and
// duplicate-free. A Mat is owned by a single rank goroutine; it is not
// safe for concurrent use.
type Mat[T any] struct {
	Rows, Cols int
	Dist       Dist
	Local      []sparse.Entry[T]

	id uint64 // process-unique identity, issued lazily by ID
}

// matIDs issues process-unique matrix identities; see (*Mat).ID.
var matIDs atomic.Uint64

// ID returns a process-unique identity for this matrix, issued on first
// use. Unlike a formatted pointer (%p), an ID is never reused after the
// matrix becomes garbage, so caches keyed by it cannot alias a dead matrix
// whose address the allocator recycled. Called only by the owning rank
// (Mat is rank-local, see type comment).
func (m *Mat[T]) ID() uint64 {
	if m.id == 0 {
		m.id = matIDs.Add(1)
	}
	return m.id
}

// FromGlobal builds this rank's piece of a globally known COO matrix (the
// generator-replication input convention; no communication is charged, as
// the paper's benchmarks exclude graph load time).
func FromGlobal[T any](rank int, coo *sparse.COO[T], d Dist, m algebra.Monoid[T]) *Mat[T] {
	c := coo.Clone()
	c.Canonicalize(m)
	out := &Mat[T]{Rows: coo.Rows, Cols: coo.Cols, Dist: d}
	for _, e := range c.E {
		if d.Owner(e.I, e.J) == rank {
			out.Local = append(out.Local, e)
		}
	}
	return out
}

// LocalNNZ returns the number of locally held entries.
func (m *Mat[T]) LocalNNZ() int { return len(m.Local) }

// GlobalNNZ sums entry counts over the communicator.
func GlobalNNZ[T any](c *machine.Comm, m *Mat[T]) int64 {
	return machine.AllreduceScalar(c, int64(len(m.Local)), func(a, b int64) int64 { return a + b })
}

// Redistribute moves m into distribution `to` with one all-to-all. A no-op
// (returning m) when the keys already match. One counting pass sizes every
// outgoing part exactly inside a single buffer; each part inherits the
// (row, col) order of the local block, so the receiver merges p sorted runs
// (MergeRuns) instead of sorting their concatenation. A rank that neither
// sends nor receives anything keeps its block as is: the result shares
// m.Local.
func Redistribute[T any](c *machine.Comm, m *Mat[T], to Dist, mon algebra.Monoid[T]) *Mat[T] {
	if m.Dist.Key == to.Key {
		return m
	}
	p, me := c.Size(), c.Rank()
	owner := make([]int32, len(m.Local))
	start := make([]int, p+1)
	for x, e := range m.Local {
		r := to.Owner(e.I, e.J)
		owner[x] = int32(r)
		start[r+1]++
	}
	parts := make([][]sparse.Entry[T], p)
	if start[me+1] == len(m.Local) {
		parts[me] = m.Local
	} else {
		for r := 0; r < p; r++ {
			start[r+1] += start[r]
		}
		buf := make([]sparse.Entry[T], len(m.Local))
		for x, e := range m.Local {
			buf[start[owner[x]]] = e
			start[owner[x]]++
		}
		lo := 0
		for r := 0; r < p; r++ {
			parts[r] = buf[lo:start[r]:start[r]]
			lo = start[r]
		}
	}
	got := machine.Alltoall(c, parts)
	n := 0
	for _, run := range got {
		n += len(run)
	}
	c.Proc().AddFlops(int64(n))
	return &Mat[T]{Rows: m.Rows, Cols: m.Cols, Dist: to, Local: MergeRuns(got, mon)}
}

// MergeRuns merges any number of (row, col)-sorted duplicate-free runs into
// one sorted duplicate-free slice: MergeSorted generalized from two runs to
// k. Coordinates shared by several runs fold with the monoid in run order
// and drop when the fold is zero. With at most one non-empty run the result
// is that run itself, not a copy.
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
			heap = append(heap, cursor{CoordKey(run[0].I, run[0].J), r, run})
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
			top.key = CoordKey(top.rest[0].I, top.rest[0].J)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	dropZeroFold()
	return out
}

// Gather collects the full matrix at every rank (a debugging/verification
// helper; cost charged as an allgather).
func Gather[T any](c *machine.Comm, m *Mat[T], mon algebra.Monoid[T]) *sparse.CSR[T] {
	all := machine.AllgatherConcat(c, m.Local)
	coo := &sparse.COO[T]{Rows: m.Rows, Cols: m.Cols, E: all}
	return sparse.FromCOO(coo, mon)
}

// EWise merges two identically distributed matrices with the monoid.
func EWise[T any](a, b *Mat[T], mon algebra.Monoid[T]) *Mat[T] {
	if a.Dist.Key != b.Dist.Key || a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("distmat: ewise on mismatched matrices (%s vs %s)", a.Dist.Key, b.Dist.Key))
	}
	out := &Mat[T]{Rows: a.Rows, Cols: a.Cols, Dist: a.Dist}
	out.Local = MergeSorted(a.Local, b.Local, mon)
	return out
}

// MergeSorted merges two sorted duplicate-free entry slices, combining
// coordinate collisions with the monoid and dropping zeros. When one side
// is empty the other is returned as is, not copied.
func MergeSorted[T any](a, b []sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	return mergeInto(make([]sparse.Entry[T], 0, len(a)+len(b)), a, b, mon)
}

// mergeInto appends the union merge of a and b to out.
func mergeInto[T any](out, a, b []sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case less(a[x], b[y]):
			out = append(out, a[x])
			x++
		case less(b[y], a[x]):
			out = append(out, b[y])
			y++
		default:
			v := mon.Op(a[x].V, b[y].V)
			if !mon.IsZero(v) {
				out = append(out, sparse.Entry[T]{I: a[x].I, J: a[x].J, V: v})
			}
			x++
			y++
		}
	}
	out = append(out, a[x:]...)
	return append(out, b[y:]...)
}

// Accumulator folds a stream of sorted runs into one sorted duplicate-free
// slice without allocating per merge: it owns two buffers and writes each
// Merge into the one that does not hold the previous result. A sweep that
// grows T by one frontier per round keeps one per rank for the region.
type Accumulator[T any] struct {
	bufs [2][]sparse.Entry[T]
	next int
}

// Merge returns MergeSorted(a, b, mon) in the accumulator's storage. a is
// the running result — normally what the previous Merge returned, or any
// slice from elsewhere — and b the run to fold in; the result never shares
// storage with b, and is a itself when b is empty. It stays valid through
// the next Merge and is overwritten by the one after.
func (acc *Accumulator[T]) Merge(a, b []sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
	if len(b) == 0 {
		return a
	}
	out := acc.bufs[acc.next][:0]
	if need := len(a) + len(b); cap(out) < need {
		out = make([]sparse.Entry[T], 0, need+need/4)
	}
	out = mergeInto(out, a, b, mon)
	acc.bufs[acc.next] = out
	acc.next ^= 1
	return out
}

func less[T any](a, b sparse.Entry[T]) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// ZipJoin visits coordinates present in both identically distributed
// matrices.
func ZipJoin[T, U any](a *Mat[T], b *Mat[U], visit func(i, j int32, x T, y U)) {
	if a.Dist.Key != b.Dist.Key {
		panic("distmat: zipjoin on mismatched distributions")
	}
	x, y := 0, 0
	for x < len(a.Local) && y < len(b.Local) {
		ea, eb := a.Local[x], b.Local[y]
		switch {
		case ea.I < eb.I || (ea.I == eb.I && ea.J < eb.J):
			x++
		case eb.I < ea.I || (eb.I == ea.I && eb.J < ea.J):
			y++
		default:
			visit(ea.I, ea.J, ea.V, eb.V)
			x++
			y++
		}
	}
}

// CoordKey packs a coordinate so that integer order is (row, col) order.
func CoordKey(i, j int32) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// SortEntries sorts an entry slice by coordinates (no merging). Entries are
// coordinate-unique at every call site, so the order is fully determined.
func SortEntries[T any](e []sparse.Entry[T]) {
	slices.SortFunc(e, func(a, b sparse.Entry[T]) int { return cmp.Compare(CoordKey(a.I, a.J), CoordKey(b.I, b.J)) })
}
