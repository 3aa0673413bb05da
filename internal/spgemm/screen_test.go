package spgemm

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/testkit"
)

// screenCase is one product the way MFBC's sweeps issue it: a frontier
// (rows×n) times a stationary n×n adjacency over a winner-takes-all monoid,
// with the accumulated matrix t the caller screens the product against.
// loses is the in-multiply screen's predicate (the product cannot win or tie
// against t's value at its coordinate) and post the caller's own screen of a
// folded product (absent: t holds nothing there): what it keeps of it, if
// anything.
type screenCase[V, W any] struct {
	name     string
	frontier *sparse.COO[V]
	t        *sparse.CSR[V]
	adj      *sparse.COO[W]
	f        func(V, W) V
	add      algebra.Monoid[V]
	edge     algebra.Monoid[W]
	loses    func(t, v V) bool
	post     func(t V, absent bool, v V) (V, bool)
}

// relax returns t after rounds Bellman-Ford rounds from seed over adj.
func relax[V, W any](seed *sparse.COO[V], adj *sparse.COO[W], rounds int, f func(V, W) V, add algebra.Monoid[V], edge algebra.Monoid[W]) *sparse.CSR[V] {
	a := sparse.FromCOO(adj, edge)
	t := sparse.FromCOO(seed, add)
	for r := 0; r < rounds; r++ {
		ext, _ := sparse.Mul(t, a, f, add)
		t = sparse.EWise(t, ext, add)
	}
	return t
}

// sided builds a case's two screens from one side's rules, the way the
// sweeps decide them: the in-multiply screen drops an entry only when every
// side of it loses; the post-screen replaces each side that is not live
// against t by zero and keeps the entry while a side is left. Where t holds
// nothing, a forward fold is a new path (kept whole) and a backward one is
// off T's pattern (dropped).
func sided[V algebra.Sided[V, E], E any](loses, live func(t, v E) bool, zero E, keepAbsent bool) (func(t, v V) bool, func(t V, absent bool, v V) (V, bool)) {
	return func(t, v V) bool {
			for s := 0; s < v.Sides(); s++ {
				if !loses(t.Side(s), v.Side(s)) {
					return false
				}
			}
			return true
		}, func(t V, absent bool, v V) (V, bool) {
			if absent {
				return v, keepAbsent
			}
			kept := false
			for s := 0; s < v.Sides(); s++ {
				if live(t.Side(s), v.Side(s)) {
					kept = true
				} else {
					v = v.WithSide(s, zero)
				}
			}
			return v, kept
		}
}

// checkScreenGraph checks the screen's contract on g at p processors for
// every product of graphCases.
func checkScreenGraph(t *testing.T, g *graph.Graph, rows, p int) {
	cs := screenCases(g, rows)
	check(t, p, cs.fwd)
	check(t, p, cs.fwdPair)
	check(t, p, cs.back)
	check(t, p, cs.backPair)
}

// graphCases are the products the sweeps issue on one graph: the forward
// product (multpaths extended by one edge, ⊕ keeps the lighter) and the
// backward one (centpaths pulled back over one edge, ⊗ keeps the heavier),
// each over scalar values and over (old, new) pairs whose new side reweights
// some edges and deletes others.
type graphCases struct {
	fwd      screenCase[algebra.MultPath, float64]
	fwdPair  screenCase[algebra.MultPathPair, algebra.WeightPair]
	back     screenCase[algebra.CentPath, float64]
	backPair screenCase[algebra.CentPathPair, algebra.WeightPair]
}

// screenCases builds g's graphCases over T after two Bellman-Ford rounds
// from rows sources.
func screenCases(g *graph.Graph, rows int) graphCases {
	adj := g.Adjacency().ToCOO()
	pairAdj := sparse.NewCOO[algebra.WeightPair](adj.Rows, adj.Cols)
	for _, e := range adj.E {
		w := algebra.WeightPair{Old: e.V, New: e.V}
		switch (e.I + e.J) % 5 { // symmetric in (i, j): the new side stays undirected
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
	trop, pairTrop := algebra.TropicalMonoid(), testkit.WeightPairMonoid()
	mp, mpp := algebra.MultPathMonoid(), algebra.MultPathPairMonoid()
	cp, cpp := algebra.CentPathMonoid(), algebra.CentPathPairMonoid()
	t2 := relax(seed, adj, 2, algebra.BFAction, mp, trop)
	pairT := relax(pairSeed, pairAdj, 2, algebra.BFActionPair, mpp, pairTrop)

	// The backward cases multiply T's pattern lifted to centpaths (ζ = 1/σ̄,
	// one child to report) and screen against T's weights, a dead side of T
	// weighing +∞ as it does in the sweeps.
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

	// A forward product loses when it is zero or heavier than T and is live
	// otherwise; a backward one loses when it is lighter than T and is live
	// only at T's weight, on its shortest-path DAG.
	heavier := func(t, v algebra.MultPath) bool { return algebra.MultPathIsZero(v) || t.W < v.W }
	notHeavier := func(t, v algebra.MultPath) bool { return !heavier(t, v) }
	lighter := func(t, v algebra.CentPath) bool { return v.W < t.W }
	//lint:allow floateq the sweeps' post-screen is an exact match of replicated weights
	onDAG := func(t, v algebra.CentPath) bool { return t.W == v.W }

	loses, post := sided[algebra.MultPath](heavier, notHeavier, algebra.MultPathZero(), true)
	pairLoses, pairPost := sided[algebra.MultPathPair](heavier, notHeavier, algebra.MultPathZero(), true)
	backLoses, backPost := sided[algebra.CentPath](lighter, onDAG, algebra.CentPathZero(), false)
	backPairLoses, backPairPost := sided[algebra.CentPathPair](lighter, onDAG, algebra.CentPathZero(), false)
	return graphCases{
		fwd:      screenCase[algebra.MultPath, float64]{"forward", t2.ToCOO(), t2, adj, algebra.BFAction, mp, trop, loses, post},
		fwdPair:  screenCase[algebra.MultPathPair, algebra.WeightPair]{"forward-pair", pairT.ToCOO(), pairT, pairAdj, algebra.BFActionPair, mpp, pairTrop, pairLoses, pairPost},
		back:     screenCase[algebra.CentPath, float64]{"backward", z.ToCOO(), tw, adj, algebra.BrandesAction, cp, trop, backLoses, backPost},
		backPair: screenCase[algebra.CentPathPair, algebra.WeightPair]{"backward-pair", pairZ.ToCOO(), pairTW, pairAdj, algebra.BrandesActionPair, cpp, pairTrop, backPairLoses, backPairPost},
	}
}

// screenedProduct multiplies c's frontier by its adjacency under plan with
// the given screen (built per rank over that rank's block of t, aligned to
// the plan's C distribution), applies the caller's post-screen, and returns
// the surviving entries of every rank in coordinate order with the region's
// critical-path cost and the products evaluated and screened out.
func screenedProduct[V, W any](
	t *testing.T, c screenCase[V, W], plan Plan, workers int,
	screenOver func(block []sparse.Entry[V]) func(i, j int32, v V) bool,
) (out []sparse.Entry[V], cost machine.Cost, products, screened int64) {
	t.Helper()
	p := plan.Procs()
	parts := make([][]sparse.Entry[V], p)
	tallies := make([][2]int64, p)
	tCOO := c.t.ToCOO()
	stats, err := sim.New(p).Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		s.Workers = workers
		a := distmat.FromGlobal(proc.Rank(), c.frontier, distmat.DistShard(p), c.add)
		b := NewStationary(distmat.FromGlobal(proc.Rank(), c.adj, distmat.DistShard(p), c.edge))
		_, _, dc := b.Dists(s, plan, a.Rows)
		block := distmat.FromGlobal(proc.Rank(), tCOO, dc, c.add).Local
		prod := Multiply(s, plan, a, b, c.f, c.add, screenOver(block), nil)
		for _, e := range prod.Local {
			tv, ok := c.t.Get(e.I, e.J)
			if e.V, ok = c.post(tv, !ok, e.V); ok {
				parts[proc.Rank()] = append(parts[proc.Rank()], e)
			}
		}
		tallies[proc.Rank()] = [2]int64{s.Products.Load(), s.Screened.Load()}
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", c.name, plan, err)
	}
	for r, part := range parts {
		out = append(out, part...)
		products += tallies[r][0]
		screened += tallies[r][1]
	}
	distmat.SortEntries(out)
	return out, stats.MaxCost, products, screened
}

// check is the contract of Multiply's screen for one case under every
// candidate plan of p processors.
func check[V comparable, W any](t *testing.T, p int, c screenCase[V, W]) {
	none := func([]sparse.Entry[V]) func(i, j int32, v V) bool { return nil }
	keepAll := func([]sparse.Entry[V]) func(i, j int32, v V) bool {
		return func(int32, int32, V) bool { return true }
	}
	dropLosers := func(block []sparse.Entry[V]) func(i, j int32, v V) bool {
		return func(i, j int32, v V) bool {
			key := distmat.CoordKey(i, j)
			y := sort.Search(len(block), func(y int) bool { return distmat.CoordKey(block[y].I, block[y].J) >= key })
			return y == len(block) || block[y].I != i || block[y].J != j || !c.loses(block[y].V, v)
		}
	}
	for _, plan := range candidatesFor(p, AnyPlan) {
		stationaryC := plan.YZ == VarAB && !(plan.P1 > 1 && plan.X == RoleC)
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s %s workers=%d", c.name, plan, workers)
			want, wantCost, wantProducts, _ := screenedProduct(t, c, plan, workers, none)
			if len(want) == 0 || wantProducts == 0 {
				t.Fatalf("%s: empty product, the case tests nothing", name)
			}
			got, cost, products, screened := screenedProduct(t, c, plan, workers, dropLosers)
			if !slices.Equal(got, want) {
				t.Errorf("%s: screened product differs from the unscreened one after the post-screen (%d vs %d entries)", name, len(got), len(want))
			}
			if cost != wantCost || products != wantProducts {
				t.Errorf("%s: screen moved the modeled work: cost %v products %d, unscreened %v %d", name, cost, products, wantCost, wantProducts)
			}
			if stationaryC == (screened == 0) {
				t.Errorf("%s: %d of %d products screened out; stationary C: %t", name, screened, products, stationaryC)
			}
			got, cost, _, screened = screenedProduct(t, c, plan, workers, keepAll)
			if !slices.Equal(got, want) || cost != wantCost || screened != 0 {
				t.Errorf("%s: a screen that keeps everything is not the nil screen", name)
			}
		}
	}
}

// TestMultiplyScreenConservative: a screen that rejects only known losers
// changes nothing the caller keeps and nothing the model charges, under any
// plan — where C is stationary because only host work shrinks, where C is
// partial because the screen is ignored.
func TestMultiplyScreenConservative(t *testing.T) {
	mesh := graph.Grid2D(6, 6, 5, 2)
	mesh.Name = "mesh-6x6"
	rmat := graph.RMAT(graph.DefaultRMAT(6, 6, 4))
	rmat.Name = "rmat-s6"
	for _, g := range []*graph.Graph{rmat, mesh} {
		for _, p := range []int{4, 6} {
			t.Run(fmt.Sprintf("%s/p%d", g.Name, p), func(t *testing.T) { checkScreenGraph(t, g, 8, p) })
		}
	}
}
