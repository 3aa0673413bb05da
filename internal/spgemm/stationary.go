package spgemm

import (
	"math"
	"slices"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Stationary is a stationary B operand as its rank holds it: the rank's
// block of the matrix, in the block's own distribution, and the working
// sets Multiply staged from it (redistributed and, for RoleB fiber plans,
// replicated), one per plan, each with the B distribution it was staged by
// — B's dimensions are the matrix's own and no plan places B by the
// frontier's row count, so the plan alone names a set. A multiply against
// an operand already staged under its plan is a warm hit, so the
// adjacency-matrix replication of MFBC is paid once and amortized over all
// iterations and batches, as in the proof of Theorem 5.1; an operand kept
// across machine regions extends that to the applies of an evolving graph.
//
// Edits reach the operand through Patch, which keeps the block and every
// set current, splicing each into a spare buffer that then takes over the
// storage it replaced. The sets need no eviction policy: plans come from a
// fixed candidate list, and a vertex-set change builds a new operand. A
// Stationary is owned by one rank; it is not safe for concurrent use.
type Stationary[T any] struct {
	m     *distmat.Mat[T]
	sets  map[Plan]*stagedB[T]
	spare []sparse.Entry[T] // the storage the next splice writes over
}

// NewStationary wraps the rank's block m as an operand with no set staged.
func NewStationary[T any](m *distmat.Mat[T]) *Stationary[T] {
	return &Stationary[T]{m: m, sets: make(map[Plan]*stagedB[T])}
}

// Dists is the package-level Dists of a product of an m-row A by b, drawn
// from the rank's placement cache: a sweep multiplies under the same few
// shapes every round, and a rank that keeps its store across regions
// builds each shape once.
func (b *Stationary[T]) Dists(s *Session, plan Plan, m int) (da, db, dc distmat.Dist) {
	d := machine.Scratch[placements](s.Proc).dists(plan, m, b.m.Rows, b.m.Cols)
	return d[0], d[1], d[2]
}

// inBlock returns whether rank's block holds (i, j).
func (b *Stationary[T]) inBlock(rank int) func(i, j int32) bool {
	d := b.m.Dist
	return func(i, j int32) bool { return d.Owner(i, j) == rank }
}

// Holds reports whether rank's share of the operand — its block or any of
// its working sets — holds coordinate (i, j). One rank's operand answers for
// every rank: the ranks share one block distribution and, issuing one
// multiply sequence, one set of plans.
func (b *Stationary[T]) Holds(rank int, i, j int32) bool {
	if b.m.Dist.Owner(i, j) == rank {
		return true
	}
	holders := 0 // counted, not returned from the map's iteration order
	for plan, sb := range b.sets {
		if sb.holds(plan, rank)(i, j) {
			holders++
		}
	}
	return holders > 0
}

// StationaryEdit is one coordinate edit of a stationary operand: an upsert
// of value V at (I, J), or — when Del is set — a deletion.
type StationaryEdit[T any] struct {
	I, J int32
	V    T
	Del  bool
}

// Patch merges globally known coordinate edits (sorted by row, then column,
// duplicate-free) into what rank holds of the operand, in place of
// invalidating and re-staging: into its block the edits the block's
// distribution assigns to rank, and into every working set exactly the
// edits a full staging would have landed on rank — the plan's B
// distribution, widened to the whole fiber group where the plan replicates
// B. Each set is then entry for entry what Redistribute (+ fiber Allgather)
// of the edited matrix would stage, but no modeled byte moved: only the
// blocks a diff touches change, so the placement stays amortized across an
// evolving-graph mutation stream.
//
// It returns the splice work in entry writes: host-side work with no
// modeled communication, which a faithful region charges as local γ-flops
// (core's sessions defer it to the next region, or charge it inside the
// fused patch phase).
func (b *Stationary[T]) Patch(rank int, edits []StationaryEdit[T]) int64 {
	b.m.Local = b.splice(b.m.Local, edits, b.inBlock(rank))
	ops := int64(len(b.m.Local))
	if len(edits) == 0 {
		return ops
	}
	for plan, sb := range b.sets {
		out := b.splice(sb.entries, edits, sb.holds(plan, rank))
		stageB(sb, plan, b.m.Rows, b.m.Cols, rank, sb.db, out)
		ops += int64(len(out))
	}
	return ops
}

// splice is the package-level splice written over the operand's spare
// buffer; cur's storage, which nothing reads once its replacement is in
// place, becomes the spare. No two of the block and the sets share
// storage (Multiply stages none on the block's), so none is written over
// while it is in use.
func (b *Stationary[T]) splice(cur []sparse.Entry[T], edits []StationaryEdit[T], owned func(i, j int32) bool) []sparse.Entry[T] {
	out := splice(b.spare, cur, edits, owned, asIs[T], upsert[T])
	b.spare = cur[:0]
	return out
}

// PairOf lifts what rank holds of b — its block and every working set — into
// the pair operand of a fused incremental region: each held entry becomes
// {Old: w, New: w}, and the new-side edits (sorted, duplicate-free) each one
// holds are spliced into the New component. Every pair set is thereby staged
// from resident data alone, so the region's pair multiplies are warm hits
// with only the diff moved; a plan the region first uses is staged on the
// pair operand, which shares b's owner tables, and dies with it. The lifted
// entries (splice by asPair and onNewSide) are written over into's storage,
// so the operand a PairOf returns is valid until the next PairOf into the
// same storage. b is left as it was. Returns the pair operand and the
// splice work in entry writes.
func PairOf(b *Stationary[float64], rank int, edits []StationaryEdit[float64], into *PairLift) (*Stationary[algebra.WeightPair], int64) {
	if into.sets == nil {
		into.sets = make(map[Plan]*stagedB[algebra.WeightPair], len(b.sets))
	}
	into.block = splice(into.block, b.m.Local, edits, b.inBlock(rank), asPair, onNewSide)
	pair := &Stationary[algebra.WeightPair]{
		m:    &distmat.Mat[algebra.WeightPair]{Rows: b.m.Rows, Cols: b.m.Cols, Dist: b.m.Dist, Local: into.block},
		sets: make(map[Plan]*stagedB[algebra.WeightPair], len(b.sets)),
	}
	ops := int64(len(into.block))
	for plan, sb := range b.sets {
		set := into.sets[plan]
		var dst []sparse.Entry[algebra.WeightPair]
		if set != nil {
			dst = set.entries
		}
		set = stageB(set, plan, b.m.Rows, b.m.Cols, rank, sb.db, splice(dst, sb.entries, edits, sb.holds(plan, rank), asPair, onNewSide))
		into.sets[plan], pair.sets[plan] = set, set
		ops += int64(len(set.entries))
	}
	return pair, ops
}

// PairLift is the storage PairOf lifts one operand into: the pair entries
// of its block, and each working set with its stage views, by plan. A
// caller that keeps one per operand across fused regions lifts without
// allocating once it has grown; each PairOf writes over what the last one
// lifted. The zero value is ready to use.
type PairLift struct {
	block []sparse.Entry[algebra.WeightPair]
	sets  map[Plan]*stagedB[algebra.WeightPair]
}

// splice merges the owned subset of sorted, duplicate-free edits into cur,
// a sorted, duplicate-free entry slice, by two rules: keep appends a run of
// resident entries no edit touches, and land gives what an owned edit
// leaves at its coordinate from the resident value there (had: whether
// there is one), or nothing (ok false). The result is written over dst
// (dst[:0], grown as needed), which must not share cur's storage; cur is
// left as it was. Patch splices by asIs and upsert, PairOf by asPair and
// onNewSide.
func splice[S, T any](
	dst []sparse.Entry[T], cur []sparse.Entry[S], edits []StationaryEdit[S], owned func(i, j int32) bool,
	keep func(out []sparse.Entry[T], run []sparse.Entry[S]) []sparse.Entry[T],
	land func(old S, had bool, ed StationaryEdit[S]) (v T, ok bool),
) []sparse.Entry[T] {
	out := slices.Grow(dst[:0], len(cur)+len(edits))
	x := 0
	for _, ed := range edits {
		if !owned(ed.I, ed.J) {
			continue
		}
		x0 := x
		for x < len(cur) && (cur[x].I < ed.I || (cur[x].I == ed.I && cur[x].J < ed.J)) {
			x++
		}
		out = keep(out, cur[x0:x])
		var old S
		had := x < len(cur) && cur[x].I == ed.I && cur[x].J == ed.J
		if had {
			old = cur[x].V
			x++
		}
		if v, ok := land(old, had, ed); ok {
			out = append(out, sparse.Entry[T]{I: ed.I, J: ed.J, V: v})
		}
	}
	return keep(out, cur[x:])
}

// asIs keeps resident entries as they are.
func asIs[T any](out, run []sparse.Entry[T]) []sparse.Entry[T] { return append(out, run...) }

// upsert lands an edit as an upsert (insert or replace) or a deletion.
func upsert[T any](_ T, _ bool, ed StationaryEdit[T]) (T, bool) { return ed.V, !ed.Del }

// asPair keeps each resident entry as the pair {Old: w, New: w}.
func asPair(out []sparse.Entry[algebra.WeightPair], run []sparse.Entry[float64]) []sparse.Entry[algebra.WeightPair] {
	for _, e := range run {
		out = append(out, sparse.Entry[algebra.WeightPair]{I: e.I, J: e.J, V: algebra.WeightPair{Old: e.V, New: e.V}})
	}
	return out
}

// onNewSide lands an edit on the pair's new side: a deletion marks it
// absent (∞), an upsert replaces or inserts it, and a coordinate absent on
// both sides is dropped. After asPair, the result is entry for entry what
// staging the old and new matrices side by side would produce.
func onNewSide(old float64, had bool, ed StationaryEdit[float64]) (algebra.WeightPair, bool) {
	v := algebra.WeightPair{Old: algebra.Inf, New: algebra.Inf}
	if had {
		v.Old = old
	}
	if !ed.Del {
		v.New = ed.V
	}
	return v, !math.IsInf(v.Old, 1) || !math.IsInf(v.New, 1)
}
