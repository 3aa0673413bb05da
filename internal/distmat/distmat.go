// Package distmat provides sparse matrices distributed over the simulated
// machine: each processor holds the entries a distribution assigns to it
// (global coordinates), and redistribution between arbitrary distributions
// is a single personalized all-to-all — the sparse-to-sparse
// redistribution kernel of CTF (§6.2). A distribution is data (Dist), so
// two that place every coordinate alike are equal, and a move between them
// is no move.
package distmat

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Dist assigns every matrix coordinate to exactly one of P world ranks. It
// is data, not a function — Owners, shared and never written — so two
// distributions that place every coordinate alike are Equal, and a move
// between them is no move. Matrices in equal distributions have co-located
// entries, the precondition for local elementwise operations. NewDist
// builds one; the zero Dist is none.
type Dist struct {
	P int
	o *Owners
}

// Owners places (i, j) on Row[i] + Col[j] (a nil table's terms are zero):
// plus Shard(i, j, Layers)·Inner where Layers > 1, for an operand a 3D plan
// replicates, spread over its layers by a hash; or renamed through Rot
// where it is non-nil, for an output reduced to a root layer that rotates
// with its inner grid position. Col[0] is zero, or one placement would
// have two pairs of tables.
type Owners struct {
	Row, Col      []int32
	Layers, Inner int
	Rot           []int32
}

// NewDist is the distribution of p ranks that places by o, a table of
// zeros dropped, so that one placement has one Owners.
func NewDist(p int, o Owners) Dist {
	for _, t := range []*[]int32{&o.Row, &o.Col} {
		if !slices.ContainsFunc(*t, func(x int32) bool { return x != 0 }) {
			*t = nil
		}
	}
	return Dist{P: p, o: &o}
}

// Owner returns the rank that holds coordinate (i, j).
func (d Dist) Owner(i, j int32) int {
	o := d.o
	var q int32
	if o.Row != nil {
		q = o.Row[i]
	}
	if o.Col != nil {
		q += o.Col[j]
	}
	switch {
	case o.Layers > 1:
		return int(q) + Shard(i, j, o.Layers)*o.Inner
	case o.Rot != nil:
		return int(o.Rot[q])
	}
	return int(q)
}

// Equal reports whether d and e are one distribution: the same rank count
// and, past one rank, the same Owners, tables compared by content unless
// both share one. It reads nothing but the two, so every rank reaches one
// verdict. That is exactly when they place every coordinate alike over
// every distribution of every plan of 12 ranks
// (spgemm.TestDistsPartitionCoordinates); in general a hash or a rotation
// could match another form's placement unseen.
func (d Dist) Equal(e Dist) bool {
	a, b := d.o, e.o
	return d.P == e.P && (d.P == 1 || a == b || a.Layers == b.Layers && a.Inner == b.Inner &&
		slices.Equal(a.Rot, b.Rot) && slices.Equal(a.Row, b.Row) && slices.Equal(a.Col, b.Col))
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

// DistShard spreads entries pseudo-randomly (used as the neutral input
// distribution before a plan-specific redistribution).
func DistShard(p int) Dist { return NewDist(p, Owners{Layers: p, Inner: 1}) }

// Shard is the pseudo-random owner in [0, p) of coordinate (i, j): the
// hash DistShard places by, and a replicated 3D operand's layer before
// replication.
func Shard(i, j int32, p int) int {
	h := uint64(uint32(i))*0x9E3779B1 ^ uint64(uint32(j))*0x85EBCA77
	h ^= h >> 33
	return int(h % uint64(p))
}

// Mat is one processor's view of a distributed sparse matrix: the entries
// the distribution assigns to this rank, kept sorted by (row, col) and
// duplicate-free. A Mat is owned by a single rank goroutine; it is not
// safe for concurrent use. It carries no identity: state derived from it,
// such as a stationary operand's staged working sets, is held beside it
// (spgemm.Stationary).
type Mat[T any] struct {
	Rows, Cols int
	Dist       Dist
	Local      []sparse.Entry[T]
}

// FromGlobal builds this rank's piece of a globally known COO matrix (the
// generator-replication input convention; no communication is charged, as
// the paper's benchmarks exclude graph load time). It takes the rank's
// share of coo's entries, then canonicalizes the share alone: an owner
// depends on the coordinate only, so duplicates meet in one share, and the
// piece is the canonical matrix filtered to the rank. coo is left as it was.
func FromGlobal[T any](rank int, coo *sparse.COO[T], d Dist, m algebra.Monoid[T]) *Mat[T] {
	share := &sparse.COO[T]{Rows: coo.Rows, Cols: coo.Cols}
	for _, e := range coo.E {
		if d.Owner(e.I, e.J) == rank {
			share.E = append(share.E, e)
		}
	}
	share.Canonicalize(m)
	return &Mat[T]{Rows: coo.Rows, Cols: coo.Cols, Dist: d, Local: share.E}
}

// FromCSR cuts every rank's piece of a globally known CSR matrix under d
// at once, as FromGlobal would from a.ToCOO() for a matrix that stores no
// zero: one pass counts each rank's entries, so every piece is sized
// exactly, and a second appends them row by row. A CSR's rows are sorted
// and duplicate-free, so each piece comes out in (row, col) order, with no
// sort and no merge. A rank that owns nothing gets a nil block. The pieces
// share no storage with a or with each other.
func FromCSR[T any](a *sparse.CSR[T], d Dist) []*Mat[T] {
	count := make([]int, d.P)
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			count[d.Owner(int32(i), j)]++
		}
	}
	out := make([]*Mat[T], d.P)
	for r, c := range count {
		out[r] = &Mat[T]{Rows: a.Rows, Cols: a.Cols, Dist: d}
		if c > 0 {
			out[r].Local = make([]sparse.Entry[T], 0, c)
		}
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			m := out[d.Owner(int32(i), j)]
			m.Local = append(m.Local, sparse.Entry[T]{I: int32(i), J: j, V: vals[k]})
		}
	}
	return out
}

// GlobalNNZ sums entry counts over the communicator.
func GlobalNNZ[T any](c *machine.Comm, m *Mat[T]) int64 {
	return machine.AllreduceScalar(c, int64(len(m.Local)), func(a, b int64) int64 { return a + b })
}

// Redistribute moves m into distribution `to` with one all-to-all, writing
// each moved entry once on either side. When m.Dist equals `to` nothing
// moves: no superstep runs, nothing is charged, and the result is m. One
// counting pass sizes every outgoing part inside the rank's send storage,
// which it reuses from call to call (sendBuf); each part inherits the
// (row, col) order of the local block. The receiver merges the p sorted
// runs that arrive (MergeDisjoint) inside the all-to-all, straight from the
// senders' parts. The runs share no coordinate, since m.Dist gives each
// coordinate one owner; a coordinate that arrives twice panics. The result
// of a move is fresh storage.
func Redistribute[T any](c *machine.Comm, m *Mat[T], to Dist) *Mat[T] {
	if m.Dist.Equal(to) {
		return m
	}
	return &Mat[T]{Rows: m.Rows, Cols: m.Cols, Dist: to, Local: RedistributeInto(c, m, to, nil)}
}

// RedistributeInto is Redistribute returning only the rank's entries under
// `to`, and merging what arrives into storage the caller keeps: when buf is
// non-nil, a merged result is written into *buf, grown as needed, and *buf
// is left holding it, so a caller that places one operand after another in
// one buffer allocates only to grow it. The entries are m.Local itself when
// m.Dist equals `to`: *buf is then untouched. *buf must not alias any
// rank's block or send storage.
func RedistributeInto[T any](c *machine.Comm, m *Mat[T], to Dist, buf *[]sparse.Entry[T]) []sparse.Entry[T] {
	if m.Dist.Equal(to) {
		return m.Local
	}
	p := c.Size()
	send := getSendBuf[T](c.Proc(), p)
	start, parts := send.start, send.parts
	for _, e := range m.Local {
		start[to.Owner(e.I, e.J)+1]++
	}
	for r := 0; r < p; r++ {
		start[r+1] += start[r]
	}
	send.entries = slices.Grow(send.entries[:0], len(m.Local))
	out := send.entries[:len(m.Local)]
	for r := 0; r < p; r++ {
		parts[r] = out[start[r]:start[r+1]:start[r+1]]
	}
	for _, e := range m.Local {
		r := to.Owner(e.I, e.J)
		out[start[r]] = e
		start[r]++
	}
	n := 0
	var res []sparse.Entry[T]
	machine.AlltoallRecv(c, parts, func(runs [][]sparse.Entry[T]) {
		for _, run := range runs {
			n += len(run)
		}
		if buf == nil {
			res = MergeDisjoint(nil, runs)
		} else {
			*buf = MergeDisjoint(*buf, runs)
			res = *buf
		}
	})
	c.Proc().AddFlops(int64(n))
	return res
}

// sendBuf is Redistribute's send storage on one rank (machine.Scratch):
// the part boundaries, the part headers and the buffer the parts are cut
// from. The rank reuses it for every redistribution of its entry type, for
// as long as its scratch store lives — the region, or the regions of a
// caller that keeps the store: once the all-to-all returns, every receiver
// has finished reading the parts (the superstep's closing barrier), and no
// result shares them.
type sendBuf[T any] struct {
	start   []int
	parts   [][]sparse.Entry[T]
	entries []sparse.Entry[T]
}

// getSendBuf returns the rank's send storage for p parts, its boundaries
// zeroed and its part headers empty.
func getSendBuf[T any](proc *machine.Proc, p int) *sendBuf[T] {
	buf := machine.Scratch[sendBuf[T]](proc)
	if cap(buf.start) < p+1 {
		buf.start, buf.parts = make([]int, p+1), make([][]sparse.Entry[T], p)
	}
	buf.start, buf.parts = buf.start[:p+1], buf.parts[:p]
	clear(buf.start)
	clear(buf.parts)
	return buf
}

// MergeDisjoint merges (row, col)-sorted duplicate-free runs that share no
// coordinate — each coordinate has one owner — into one sorted slice
// written over dst: dst[:0] grown as needed, whatever dst held before, so a
// caller that passes back what the last call returned merges into one
// buffer, and a nil dst merges into fresh storage (nil when every run is
// empty). dst must not alias any run, since the merge reads the runs while
// it writes; the result then shares no run's storage. It copies maximal
// segments: a run's entries below every other run's next coordinate go out
// in one copy, found by galloping, so runs that cover disjoint ranges merge
// by a few copies. No monoid: nothing folds. A coordinate held by two runs
// panics, naming it — the owner function that cut the runs was not a
// function of the coordinate. testkit.MergeRuns is its reference.
func MergeDisjoint[T any](dst []sparse.Entry[T], runs [][]sparse.Entry[T]) []sparse.Entry[T] {
	type cursor struct {
		key  uint64
		rest []sparse.Entry[T]
	}
	var small [8]cursor // a world's or a fiber's runs, without allocating
	heap := small[:0]
	total := 0
	for _, run := range runs {
		if len(run) > 0 {
			heap = append(heap, cursor{CoordKey(run[0].I, run[0].J), run})
			total += len(run)
		}
	}
	out := slices.Grow(dst[:0], total)
	if total == 0 {
		return out
	}
	down := func(x int) {
		for c := 2*x + 1; c < len(heap); x, c = c, 2*c+1 {
			if c+1 < len(heap) && heap[c+1].key < heap[c].key {
				c++
			}
			if heap[c].key >= heap[x].key {
				return
			}
			heap[x], heap[c] = heap[c], heap[x]
		}
	}
	for x := len(heap)/2 - 1; x >= 0; x-- {
		down(x)
	}
	for len(heap) > 1 {
		// The next smallest head is a child of the root; the top run's
		// entries below it go out as one segment. An equal head is a
		// shared coordinate: every head on the path to it equals it too.
		top, next := &heap[0], heap[1].key
		if len(heap) > 2 && heap[2].key < next {
			next = heap[2].key
		}
		if top.key == next {
			e := top.rest[0]
			panic(fmt.Sprintf("distmat: coordinate (%d, %d) held by two runs", e.I, e.J))
		}
		run, seg := top.rest, 1
		if len(run) > 1 && CoordKey(run[1].I, run[1].J) < next {
			seg = below(run, next)
		}
		if seg == 1 {
			out = append(out, run[0])
		} else {
			out = append(out, run[:seg]...)
		}
		if top.rest = run[seg:]; len(top.rest) > 0 {
			top.key = CoordKey(top.rest[0].I, top.rest[0].J)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return append(out, heap[0].rest...)
}

// below returns how many leading entries of run lie below key, galloping
// from the front; run[0] and run[1] must.
func below[T any](run []sparse.Entry[T], key uint64) int {
	lo, step := 1, 1 // run[lo] < key
	for lo+step < len(run) && CoordKey(run[lo+step].I, run[lo+step].J) < key {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(run)) // run[hi] ≥ key, or the end
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if CoordKey(run[mid].I, run[mid].J) < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// EWise merges two identically distributed matrices with the monoid.
func EWise[T any](a, b *Mat[T], mon algebra.Monoid[T]) *Mat[T] {
	if !a.Dist.Equal(b.Dist) || a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("distmat: ewise on mismatched matrices (%dx%d vs %dx%d, or another distribution)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := &Mat[T]{Rows: a.Rows, Cols: a.Cols, Dist: a.Dist}
	out.Local = MergeSorted(a.Local, b.Local, mon)
	return out
}

// MergeSorted merges two sorted duplicate-free entry slices, combining
// coordinate collisions with the monoid and dropping zeros, into fresh
// storage: the result shares neither argument's, also when one side is
// empty.
func MergeSorted[T any](a, b []sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
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

// Accumulator is two buffers written in turn, so that each result stays
// valid through the next and is written over by the one after: a merge
// (Merge), a move (Move), or a result a kernel writes over Spare itself
// and hands to Rotate. Move's results keep their headers in two more slots
// written in turn, under the same rule. A sweep keeps one per rank and
// matrix for as long as its storage lives. The zero value is ready to use.
type Accumulator[T any] struct {
	bufs [2][]sparse.Entry[T]
	next int // the buffer the next result is written over
	mats [2]Mat[T]
	mat  int // the header the next move is written over
}

// Spare returns the buffer the next result is written over, at length 0.
func (acc *Accumulator[T]) Spare() []sparse.Entry[T] { return acc.bufs[acc.next][:0] }

// Rotate makes out, written over Spare's buffer and grown as needed, the
// newest result, and returns it.
func (acc *Accumulator[T]) Rotate(out []sparse.Entry[T]) []sparse.Entry[T] {
	acc.bufs[acc.next], acc.next = out, acc.next^1
	return out
}

// Merge returns MergeSorted(a, b, mon) as the newest result, never sharing
// b's storage. a is the running result, normally the newest. When b is
// empty Merge returns a and leaves the rotation where it was.
func (acc *Accumulator[T]) Merge(a, b []sparse.Entry[T], mon algebra.Monoid[T]) []sparse.Entry[T] {
	if len(b) == 0 {
		return a
	}
	out := acc.Spare()
	if need := len(a) + len(b); cap(out) < need {
		out = make([]sparse.Entry[T], 0, need+need/4)
	}
	return acc.Rotate(mergeInto(out, a, b, mon))
}

// Move is RedistributeInto merging what arrives over the spare buffer,
// which then holds the newest result, with the result's header in the
// accumulator. A move between equal distributions returns m itself and
// writes nothing.
func (acc *Accumulator[T]) Move(c *machine.Comm, m *Mat[T], to Dist) *Mat[T] {
	if m.Dist.Equal(to) {
		return m
	}
	local := RedistributeInto(c, m, to, &acc.bufs[acc.next])
	acc.next ^= 1
	res := &acc.mats[acc.mat]
	acc.mat ^= 1
	*res = Mat[T]{Rows: m.Rows, Cols: m.Cols, Dist: to, Local: local}
	return res
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
	if !a.Dist.Equal(b.Dist) {
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
