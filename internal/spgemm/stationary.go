package spgemm

import (
	"slices"

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

// ChargeStage runs the collectives that stage b's working set under plan,
// as a multiply under plan would, and keeps nothing: a collective over the
// world, which every rank calls with the same plan. A caller that holds a
// copy of the matrix in a form of its own pays through it for the staging
// that copy stands for — under a RoleB fiber plan of p×1×1, the whole
// matrix on every rank.
func (b *Stationary[T]) ChargeStage(s *Session, plan Plan) {
	_, db, _ := b.Dists(s, plan, 0) // B's placement does not depend on A's rows
	b.stage(s, plan, db)
}

// HasSet reports whether b holds a working set staged under plan.
func (b *Stationary[T]) HasSet(plan Plan) bool {
	_, ok := b.sets[plan]
	return ok
}

// staged returns b's working set under plan, staging it on first use. A
// rank owning no B entries legitimately holds an empty set, so a hit is
// decided by the map's ok flag: re-staging on an empty set would have that
// rank alone re-enter the fiber collectives and desync the machine.
func (b *Stationary[T]) staged(s *Session, plan Plan, db distmat.Dist) *stagedB[T] {
	if sb, hit := b.sets[plan]; hit {
		return sb
	}
	sb := stageB(nil, plan, b.m.Rows, b.m.Cols, s.Proc.Rank(), db, b.stage(s, plan, db))
	b.sets[plan] = sb
	return sb
}

// stage returns b's entries staged by db, the plan's B distribution:
// redistributed and, for RoleB fiber plans, replicated over the plan's
// fibers, in storage of their own.
func (b *Stationary[T]) stage(s *Session, plan Plan, db distmat.Dist) []sparse.Entry[T] {
	bE := distmat.RedistributeInto(s.Proc.World(), b.m, db, nil)
	switch {
	case plan.P1 > 1 && plan.X == RoleB:
		bE = replicate(s.grid(plan.P1, plan.P2, plan.P3).Fiber, bE, nil)
	case db.Equal(b.m.Dist):
		// Nothing moved, so bE is the block itself, which must not share
		// its storage with the set: Patch hands each one's storage on to
		// the next splice.
		bE = slices.Clone(bE)
	}
	return bE
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
// (core's sessions defer it to the next region, or charge it inside an
// incremental apply's patch phase).
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
	out := splice(b.spare, cur, edits, owned)
	b.spare = cur[:0]
	return out
}

// splice merges the owned subset of sorted, duplicate-free edits into cur,
// a sorted, duplicate-free entry slice: an upsert replaces or inserts its
// entry, a deletion drops it. The result is written over dst (dst[:0],
// grown as needed), which must not share cur's storage; cur is left as it
// was.
func splice[T any](dst, cur []sparse.Entry[T], edits []StationaryEdit[T], owned func(i, j int32) bool) []sparse.Entry[T] {
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
		out = append(out, cur[x0:x]...)
		if x < len(cur) && cur[x].I == ed.I && cur[x].J == ed.J {
			x++
		}
		if !ed.Del {
			out = append(out, sparse.Entry[T]{I: ed.I, J: ed.J, V: ed.V})
		}
	}
	return append(out, cur[x:]...)
}
