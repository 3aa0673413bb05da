package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

// TestSplitProductSurvivesNextMultiply: mulPerSide's split branch
// multiplies each side's projection through one accumulator and merges the
// products in the first live side's distribution. On a rank where the other
// side's product is empty the merge is the first product itself, which
// lives in the accumulator storage the next multiply writes. The sweep
// feeds the merged product back as its next frontier, so the branch must
// hand back storage of its own. Here side 0 runs the one-stage 1D plan that
// places A as it leaves C, and side 1 carries one live entry under a 2D
// plan, so most ranks hold no side-1 product; the next product, under side
// 0's plan through the same accumulator, must be the one fresh storage
// gives, rank by rank.
func TestSplitProductSurvivesNextMultiply(t *testing.T) {
	const p = 4
	oneStage := spgemm.Plan{P1: p, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}
	grid := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}
	g := graph.Grid2D(6, 6, 5, 2)
	adj := g.Adjacency()
	alg := pairAlgebra()
	pairs := sparse.NewCOO[algebra.WeightPair](g.N, g.N)
	for i := 0; i < g.N; i++ {
		cols, vals := adj.Row(i)
		for k, j := range cols {
			pairs.Append(int32(i), j, algebra.WeightPair{Old: vals[k], New: vals[k]})
		}
	}
	sources := []int32{0, 7, 14, 21, 28, 35}
	front := sparse.NewCOO[algebra.MultPathPair](len(sources), g.N)
	zero := alg.mult.Identity
	for i, src := range sources {
		cols, vals := adj.Row(int(src))
		for k, j := range cols {
			front.Append(int32(i), j, zero.WithSide(0, algebra.MultPath{W: vals[k], M: 1}))
		}
	}
	front.Append(0, 1, zero.WithSide(1, algebra.MultPath{W: 1, M: 1}))
	var split, sideless, differ atomic.Int32
	_, err := sim.New(p).Run(func(proc *machine.Proc) {
		shard := distmat.DistShard(p)
		b := spgemm.NewStationary(distmat.FromGlobal(proc.Rank(), pairs, shard, testkit.WeightPairMonoid()))
		sp := &sidePlans{
			sess:  spgemm.NewSession(proc),
			pls:   []planner{{forced: &oneStage}, {forced: &grid}},
			plans: make([]spgemm.Plan, 2),
		}
		unscreened := func(distmat.Dist) spgemm.Screen[algebra.MultPathPair, algebra.WeightPair] { return nil }
		var acc spgemm.Accumulator[algebra.MultPathPair]
		ext, _ := mulPerSide(sp, false, false, multpathBytes, distmat.FromGlobal(proc.Rank(), front, shard, alg.mult),
			b, alg.bf, alg.mult, algebra.MultPathIsZero, unscreened, &acc)
		split.Add(int32(sp.split))
		if len(ext.Local) > 0 && !slices.ContainsFunc(ext.Local, func(e sparse.Entry[algebra.MultPathPair]) bool {
			return !algebra.MultPathIsZero(e.V.New)
		}) {
			sideless.Add(1)
		}
		kept := &distmat.Mat[algebra.MultPathPair]{Rows: ext.Rows, Cols: ext.Cols, Dist: ext.Dist, Local: slices.Clone(ext.Local)}
		next := spgemm.Multiply(sp.sess, oneStage, ext, b, alg.bf, alg.mult, nil, &acc)
		fresh := spgemm.Multiply(sp.sess, oneStage, kept, b, alg.bf, alg.mult, nil, new(spgemm.Accumulator[algebra.MultPathPair]))
		if !slices.Equal(next.Local, fresh.Local) {
			differ.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if split.Load() != p || sideless.Load() == 0 {
		t.Fatalf("the setup missed its case: %d of %d ranks took the split branch, %d hold a product with no side-1 entry", split.Load(), p, sideless.Load())
	}
	if differ.Load() > 0 {
		t.Errorf("on %d of %d ranks the product after a split round differs from the one fresh storage gives", differ.Load(), p)
	}
}
