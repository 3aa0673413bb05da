package spgemm

import (
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Stationary is a stationary B operand as its rank holds it: the rank's
// block of the matrix, in the block's own distribution, and the working
// sets Multiply staged from it (redistributed and, for RoleB fiber plans,
// replicated), one per plan — B's dimensions are the matrix's own and no
// plan places B by the frontier's row count, so the plan alone names a set.
// A multiply against an operand already staged under its plan is a warm
// hit, so the adjacency-matrix replication of MFBC is paid once and
// amortized over all iterations and batches, as in the proof of Theorem
// 5.1. The sets need no eviction policy: plans come from a fixed candidate
// list, and an edited matrix is a new operand. A Stationary is owned by one
// rank; it is not safe for concurrent use.
type Stationary[T any] struct {
	m    *distmat.Mat[T]
	sets map[Plan]*stagedB[T]
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

// staged returns b's working set under plan, staging it on first use. A
// rank owning no B entries legitimately holds an empty set, so a hit is
// decided by the map's ok flag: re-staging on an empty set would have that
// rank alone re-enter the fiber collectives and desync the machine.
func (b *Stationary[T]) staged(s *Session, plan Plan, db distmat.Dist) *stagedB[T] {
	if sb, hit := b.sets[plan]; hit {
		return sb
	}
	sb := stageB(plan, b.m.Rows, b.m.Cols, s.Proc.Rank(), b.stage(s, plan, db))
	b.sets[plan] = sb
	return sb
}

// stage returns b's entries staged by db, the plan's B distribution:
// redistributed and, for RoleB fiber plans, replicated over the plan's
// fibers. Where nothing moves they are the block's own entries, which
// neither the block nor the set ever writes.
func (b *Stationary[T]) stage(s *Session, plan Plan, db distmat.Dist) []sparse.Entry[T] {
	bE := distmat.RedistributeInto(s.Proc.World(), b.m, db, nil)
	if plan.P1 > 1 && plan.X == RoleB {
		bE = replicate(s.grid(plan.P1, plan.P2, plan.P3).Fiber, bE, nil)
	}
	return bE
}
