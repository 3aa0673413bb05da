package spgemm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// maskRun is what one rank-parallel product left behind: each rank's C
// block in the order the rank produced it, the region's critical-path cost,
// the products evaluated and those screened out per the session counters,
// and how often the mask's Slot answered −1.
type maskRun[V any] struct {
	parts                       [][]sparse.Entry[V]
	cost                        machine.Cost
	products, screened, dropped int64
}

// Kernels the mask test runs one product through.
const (
	kernelPlain  = iota // Multiply without a screen
	kernelSorted        // Multiply screened by the mask's verdicts: the sorting kernel
	kernelMasked        // MultiplyMasked: the accumulating kernel
)

// maskedProduct multiplies c's frontier by its adjacency under plan with the
// given kernel. The mask is built per rank over that rank's block of c.t in
// the plan's C distribution, as MFBr builds it over T: a product's slot is
// its coordinate's position in the block, −1 where the block holds nothing
// or the product loses there. A plan of several stages drains the one
// accumulator once per stage.
func maskedProduct[V, W any](t *testing.T, c screenCase[V, W], plan Plan, workers, kernel int) maskRun[V] {
	t.Helper()
	p := plan.Procs()
	out := maskRun[V]{parts: make([][]sparse.Entry[V], p)}
	tallies := make([][3]int64, p)
	tCOO := c.t.ToCOO()
	stats, err := sim.New(p).Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		s.Workers = workers
		a := distmat.FromGlobal(proc.Rank(), c.frontier, distmat.DistShard(p), c.add)
		b := distmat.FromGlobal(proc.Rank(), c.adj, distmat.DistShard(p), c.edge)
		_, _, dc := s.Dists(plan, a.Rows, a.Cols, b.Cols)
		block := distmat.FromGlobal(proc.Rank(), tCOO, dc, c.add).Local
		var dropped atomic.Int64 // the rank's workers ask at once
		slot := func(i, j int32, v V) int {
			key := distmat.CoordKey(i, j)
			y := sort.Search(len(block), func(y int) bool { return distmat.CoordKey(block[y].I, block[y].J) >= key })
			if y == len(block) || block[y].I != i || block[y].J != j || c.loses(block[y].V, v) {
				dropped.Add(1)
				return -1
			}
			return y
		}
		var prod *distmat.Mat[V]
		switch kernel {
		case kernelPlain:
			prod = Multiply(s, plan, a, b, c.f, c.add, c.add, c.edge, false, nil)
		case kernelSorted:
			prod = Multiply(s, plan, a, b, c.f, c.add, c.add, c.edge, false, func(i, j int32, v V) bool { return slot(i, j, v) >= 0 })
		default:
			mask := &Mask[V]{Slot: slot, Len: len(block), Acc: &sparse.SPA[sparse.Entry[V]]{}}
			prod = MultiplyMasked(s, plan, a, b, c.f, c.add, c.add, c.edge, false, mask)
		}
		out.parts[proc.Rank()] = prod.Local
		tallies[proc.Rank()] = [3]int64{s.Products.Load(), s.Screened.Load(), dropped.Load()}
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", c.name, plan, err)
	}
	for _, tl := range tallies {
		out.products += tl[0]
		out.screened += tl[1]
		out.dropped += tl[2]
	}
	out.cost = stats.MaxCost
	return out
}

// entryBits is the little-endian image of entry lists: equal images are the
// same entries in the same order with the same bits.
func entryBits[V any](t *testing.T, parts ...[]sparse.Entry[V]) []byte {
	var buf bytes.Buffer
	for _, part := range parts {
		if err := binary.Write(&buf, binary.LittleEndian, part); err != nil {
			t.Error(err)
		}
		buf.WriteByte('|')
	}
	return buf.Bytes()
}

// checkMask is the contract of MultiplyMasked for one case under every
// candidate plan of p processors: where the mask runs, the accumulating
// kernel emits bit for bit what the sorting kernel emits under the same
// verdicts, on every rank and in the same order, and counts each dropped
// product as screened out; elsewhere it is ignored. Neither moves the
// products evaluated or the modeled cost.
func checkMask[V, W any](t *testing.T, p int, c screenCase[V, W]) {
	for _, plan := range candidatesFor(p, AnyPlan) {
		stationaryC := plan.YZ == VarAB && !(plan.P1 > 1 && plan.X == RoleC)
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s %s workers=%d", c.name, plan, workers)
			plain := maskedProduct(t, c, plan, workers, kernelPlain)
			sorted := maskedProduct(t, c, plan, workers, kernelSorted)
			masked := maskedProduct(t, c, plan, workers, kernelMasked)
			if plain.products == 0 {
				t.Fatalf("%s: empty product, the case tests nothing", name)
			}
			if !bytes.Equal(entryBits(t, masked.parts...), entryBits(t, sorted.parts...)) {
				t.Errorf("%s: the masked kernel's output differs from the sorting kernel's under the same mask", name)
			}
			if !stationaryC && !bytes.Equal(entryBits(t, masked.parts...), entryBits(t, plain.parts...)) {
				t.Errorf("%s: a partial-C plan did not ignore the mask", name)
			}
			for _, r := range []maskRun[V]{sorted, masked} {
				if r.cost != plain.cost || r.products != plain.products {
					t.Errorf("%s: the mask moved the modeled work: cost %v products %d, unmasked %v %d", name, r.cost, r.products, plain.cost, plain.products)
				}
			}
			if masked.screened != masked.dropped || masked.screened != sorted.screened {
				t.Errorf("%s: %d products screened out, the mask dropped %d and the sorting kernel screened %d", name, masked.screened, masked.dropped, sorted.screened)
			}
			if stationaryC == (masked.screened == 0) {
				t.Errorf("%s: %d of %d products screened out; stationary C: %t", name, masked.screened, masked.products, stationaryC)
			}
		}
	}
}

// TestMaskIsTheSort: MFBr's backward products — T's pattern lifted to
// centpaths times Aᵀ, scalar and (old, new) pairs — masked by T, on an RMAT
// graph and a weighted mesh at p ∈ {4, 6}, with one and three workers per
// rank.
func TestMaskIsTheSort(t *testing.T) {
	mesh := graph.Grid2D(6, 6, 5, 2)
	mesh.Name = "mesh-6x6"
	rmat := graph.RMAT(graph.DefaultRMAT(6, 6, 4))
	rmat.Name = "rmat-s6"
	for _, g := range []*graph.Graph{rmat, mesh} {
		for _, p := range []int{4, 6} {
			t.Run(fmt.Sprintf("%s/p%d", g.Name, p), func(t *testing.T) { checkMaskGraph(t, g, 8, p) })
		}
	}
}

// checkMaskGraph builds checkScreenGraph's backward cases on g: T after two
// Bellman-Ford rounds from rows sources, its pattern lifted to centpaths
// (ζ = 1/σ̄, one child to report) as the frontier, and T's weights lifted the
// same way as the block the mask looks up, a dead side weighing +∞.
func checkMaskGraph(t *testing.T, g *graph.Graph, rows, p int) {
	adj := g.Adjacency().ToCOO()
	pairAdj := sparse.NewCOO[algebra.WeightPair](adj.Rows, adj.Cols)
	for _, e := range adj.E {
		w := algebra.WeightPair{Old: e.V, New: e.V}
		switch (e.I + e.J) % 5 {
		case 0:
			w.New = e.V + 1
		case 1:
			w.New = algebra.Inf
		}
		pairAdj.Append(e.I, e.J, w)
	}
	seed := sparse.NewCOO[algebra.MultPath](rows, adj.Cols)
	pairSeed := sparse.NewCOO[algebra.MultPathPair](rows, adj.Cols)
	one := algebra.MultPath{M: 1}
	for _, e := range pairAdj.E {
		for i := 0; i < rows; i++ {
			if e.I == int32(i*g.N/rows) {
				seed.Append(int32(i), e.J, algebra.BFAction(one, e.V.Old))
				pairSeed.Append(int32(i), e.J, algebra.BFActionPair(algebra.MultPathPair{Old: one, New: one}, e.V))
			}
		}
	}
	t2 := relax(seed, adj, 2, algebra.BFAction, algebra.MultPathMonoid(), algebra.TropicalMonoid())
	pairT := relax(pairSeed, pairAdj, 2, algebra.BFActionPair, algebra.MultPathPairMonoid(), algebra.WeightPairMonoid())
	cp, cpp := algebra.CentPathMonoid(), algebra.CentPathPairMonoid()
	lift := func(m algebra.MultPath, dead algebra.CentPath) algebra.CentPath {
		if algebra.MultPathIsZero(m) {
			return dead
		}
		return algebra.CentPath{W: m.W, P: 1 / m.M, C: 1}
	}
	liftAll := func(dead algebra.CentPath) (*sparse.CSR[algebra.CentPath], *sparse.CSR[algebra.CentPathPair]) {
		return sparse.Map(t2, cp, func(_, _ int32, m algebra.MultPath) algebra.CentPath { return lift(m, dead) }),
			sparse.Map(pairT, cpp, func(_, _ int32, m algebra.MultPathPair) algebra.CentPathPair {
				return algebra.CentPathPair{Old: lift(m.Old, dead), New: lift(m.New, dead)}
			})
	}
	z, pairZ := liftAll(algebra.CentPathZero())
	tw, pairTW := liftAll(algebra.CentPath{W: algebra.Inf})
	lighter := func(t, v algebra.CentPath) bool { return v.W < t.W }
	//lint:allow floateq the sweeps' post-screen is an exact match of replicated weights
	onDAG := func(t, v algebra.CentPath) bool { return t.W == v.W }
	loses, _ := sided[algebra.CentPath](lighter, onDAG, algebra.CentPathZero(), false)
	checkMask(t, p, screenCase[algebra.CentPath, float64]{name: "backward", frontier: z.ToCOO(), t: tw, adj: adj, f: algebra.BrandesAction, add: cp, edge: algebra.TropicalMonoid(), loses: loses})
	pairLoses, _ := sided[algebra.CentPathPair](lighter, onDAG, algebra.CentPathZero(), false)
	checkMask(t, p, screenCase[algebra.CentPathPair, algebra.WeightPair]{name: "backward-pair", frontier: pairZ.ToCOO(), t: pairTW, adj: pairAdj, f: algebra.BrandesActionPair, add: cpp, edge: algebra.WeightPairMonoid(), loses: pairLoses})
}
