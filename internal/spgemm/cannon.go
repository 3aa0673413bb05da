package spgemm

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Cannon executes Cannon's algorithm (§5.2.2) on a square √p×√p grid:
// blocks of A shift left and blocks of B shift up each round, using
// point-to-point communication instead of collectives. The paper quotes its
// cost, O(α·√p + β·(nnz(A)+nnz(B))/√p), as the classical 2D baseline that
// the broadcast-based variants improve upon for imbalanced operands; it is
// provided both as a historical reference and for the decomposition
// ablations.
//
// Inputs may be in any distribution; outputs land in the Block2D layout of
// the grid. The communicator size must be a perfect square.
func Cannon[TA, TB, TC any](
	s *Session,
	a *distmat.Mat[TA], b *distmat.Mat[TB],
	f func(TA, TB) TC,
	add algebra.Monoid[TC], addA algebra.Monoid[TA], addB algebra.Monoid[TB],
) *distmat.Mat[TC] {
	world := s.Proc.World()
	p := world.Size()
	q := isqrt(p)
	if q*q != p {
		panic(fmt.Sprintf("spgemm: Cannon needs a square processor count, got %d", p))
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("spgemm: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	g := s.Grid(1, q, q)
	i, j := g.G2.MyR, g.G2.MyC

	// Initial skew: processor (i,j) starts with A block (i, i+j mod q) and
	// B block (i+j mod q, j).
	da := distmat.Dist{
		Key: fmt.Sprintf("cannon-A(q=%d,m=%d,k=%d)", q, m, k),
		P:   p,
		Owner: func(r, c int32) int {
			bi := distmat.Part(r, m, q)
			bk := distmat.Part(c, k, q)
			// block (bi, bk) starts at processor (bi, (bk - bi) mod q)
			return bi*q + ((bk-bi)%q+q)%q
		},
	}
	db := distmat.Dist{
		Key: fmt.Sprintf("cannon-B(q=%d,k=%d,n=%d)", q, k, n),
		P:   p,
		Owner: func(r, c int32) int {
			bk := distmat.Part(r, k, q)
			bj := distmat.Part(c, n, q)
			// block (bk, bj) starts at processor ((bk - bj) mod q, bj)
			return (((bk-bj)%q+q)%q)*q + bj
		},
	}
	aw := distmat.Redistribute(world, a, da, addA)
	bw := distmat.Redistribute(world, b, db, addB)
	aBlk := append([]sparse.Entry[TA]{}, aw.Local...)
	bBlk := append([]sparse.Entry[TB]{}, bw.Local...)

	var acc []sparse.Entry[TC]
	for round := 0; round < q; round++ {
		// The k-block currently held is the same for A's columns and B's
		// rows by the skew invariant: (i + j + round) mod q.
		kb := (i + j + round) % q
		k0, k1 := distmat.PartBounds(kb, k, q)
		prod, ops := mulEntriesParallel(aBlk, bBlk, nil, k0, k1, f, add, 1)
		s.Proc.AddFlops(ops)
		acc = distmat.MergeSorted(acc, prod, add)
		if round == q-1 {
			break
		}
		// Shift A left within the row, B up within the column.
		left, right := (j+q-1)%q, (j+1)%q
		aBlk = machine.SendRecv(g.G2.Row, left, right, aBlk)
		up, down := (i+q-1)%q, (i+1)%q
		bBlk = machine.SendRecv(g.G2.Col, up, down, bBlk)
	}
	dc := distmat.Dist{
		Key: fmt.Sprintf("cannon-C(q=%d,m=%d,n=%d)", q, m, n),
		P:   p,
		Owner: func(r, c int32) int {
			return distmat.Part(r, m, q)*q + distmat.Part(c, n, q)
		},
	}
	return &distmat.Mat[TC]{Rows: m, Cols: n, Dist: dc, Local: acc}
}

func isqrt(p int) int {
	q := 0
	for (q+1)*(q+1) <= p {
		q++
	}
	return q
}
