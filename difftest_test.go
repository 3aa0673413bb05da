package repro

// Differential test harness: every engine and decomposition the library
// offers, pitted against the textbook Brandes oracle on a seeded matrix of
// topologies — power-law (R-MAT), uniform random, and mesh; weighted and
// unweighted; directed and undirected. Since PR 1 made the local kernels
// parallel, this is the main guard that shared-memory parallelism, the
// simulated distributed decompositions, and the batched sweeps all stay
// bit-faithful to the sequential semantics.
//
// The seed matrix is fixed (so tier-1 time stays bounded) but extendable:
// MFBC_DIFFTEST_SEEDS=n runs n seeds per topology, as CI does.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/spgemm"
)

// diffTopology builds one graph of the family for a seed.
type diffTopology struct {
	name  string
	build func(seed int64) *Graph
}

func diffTopologies() []diffTopology {
	weighted := func(g *Graph, seed int64) *Graph {
		g.AddUniformWeights(1, 9, seed)
		return g
	}
	return []diffTopology{
		{"rmat-undirected", func(s int64) *Graph { return RMATGraph(6, 6, s) }},
		{"rmat-undirected-weighted", func(s int64) *Graph { return weighted(RMATGraph(6, 6, s+100), s+101) }},
		{"uniform-undirected", func(s int64) *Graph { return UniformGraph(48, 180, false, s) }},
		{"uniform-directed", func(s int64) *Graph { return UniformGraph(48, 240, true, s) }},
		{"uniform-directed-weighted", func(s int64) *Graph { return weighted(UniformGraph(40, 200, true, s+200), s+201) }},
		{"grid-unweighted", func(s int64) *Graph { return GridGraph(4, 7, 1, s) }},
		{"grid-weighted", func(s int64) *Graph { return GridGraph(5, 6, 9, s) }},
	}
}

// diffConfig is one engine/decomposition point to check against the oracle.
type diffConfig struct {
	name           string
	opt            Options
	unweightedOnly bool // CombBLAS rejects weighted graphs by design
	// cons, when set, runs MFBC through core.MFBCDistributed with the
	// decomposition search restricted to one family (the §7 ablation).
	cons spgemm.Constraint
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{"mfbc-seq", Options{Engine: EngineMFBC}, false, spgemm.AnyPlan},
		{"mfbc-seq-batch8", Options{Engine: EngineMFBC, Batch: 8}, false, spgemm.AnyPlan},
		{"mfbc-p2-batch16", Options{Engine: EngineMFBC, Procs: 2, Batch: 16}, false, spgemm.AnyPlan},
		{"mfbc-p4-only1d", Options{Engine: EngineMFBC, Procs: 4}, false, spgemm.Only1D},
		{"mfbc-p4-only2d", Options{Engine: EngineMFBC, Procs: 4}, false, spgemm.Only2D},
		{"mfbc-p8-only3d", Options{Engine: EngineMFBC, Procs: 8, Batch: 8}, false, spgemm.Only3D},
		{"mfbc-p6-anyplan", Options{Engine: EngineMFBC, Procs: 6}, false, spgemm.AnyPlan},
		{"combblas-seq", Options{Engine: EngineCombBLAS}, true, spgemm.AnyPlan},
		{"combblas-p4-batch16", Options{Engine: EngineCombBLAS, Procs: 4, Batch: 16}, true, spgemm.AnyPlan},
	}
}

// run computes c's scores on g: through Compute, or through
// core.MFBCDistributed under c's search constraint.
func (c diffConfig) run(g *Graph) (*Result, error) {
	if c.cons == spgemm.AnyPlan {
		return Compute(g, c.opt)
	}
	r, err := core.MFBCDistributed(g, core.DistOptions{Procs: c.opt.Procs, Batch: c.opt.Batch, Constraint: c.cons})
	if err != nil {
		return nil, err
	}
	return &Result{BC: r.BC, Plan: r.Plan.String()}, nil
}

// diffSeeds returns the seed matrix: fixed and small by default, widened by
// the MFBC_DIFFTEST_SEEDS environment variable (CI runs 2).
func diffSeeds(t *testing.T) []int64 {
	n := 1
	if v := os.Getenv("MFBC_DIFFTEST_SEEDS"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			t.Fatalf("bad MFBC_DIFFTEST_SEEDS=%q", v)
		}
		n = parsed
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestDifferential enumerates engine × topology × plan-constraint × seed
// and requires agreement with Brandes within 1e-9 relative tolerance.
func TestDifferential(t *testing.T) {
	configs := diffConfigs()
	if testing.Short() {
		configs = configs[:5] // keep one distributed MFBC point in -short runs
	}
	for _, topo := range diffTopologies() {
		t.Run(topo.name, func(t *testing.T) {
			for _, seed := range diffSeeds(t) {
				g := topo.build(seed)
				if err := g.Validate(); err != nil {
					t.Fatalf("seed %d: generator produced an invalid graph: %v", seed, err)
				}
				oracle, err := Compute(g, Options{Engine: EngineBrandes})
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				for _, cfg := range configs {
					if cfg.unweightedOnly && g.Weighted {
						continue
					}
					t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
						res, err := cfg.run(g)
						if err != nil {
							t.Fatalf("%s on %s (n=%d m=%d): %v", cfg.name, g.Name, g.N, g.M(), err)
						}
						if len(res.BC) != len(oracle.BC) {
							t.Fatalf("score length %d want %d", len(res.BC), len(oracle.BC))
						}
						for v := range oracle.BC {
							if !almostEqual(res.BC[v], oracle.BC[v]) {
								t.Fatalf("BC[%d] = %.17g, oracle %.17g (graph %s n=%d m=%d seed %d)",
									v, res.BC[v], oracle.BC[v], g.Name, g.N, g.M(), seed)
							}
						}
						if cfg.opt.Procs > 1 && res.Plan == "" {
							t.Fatal("distributed run must report its plan")
						}
					})
				}
			}
		})
	}
}

// TestRealWeightsDifferential holds the p=1 route to the Brandes oracle on
// weights with no exact sums: 0.05 + rand.Float64(), where path weights
// added in different orders differ in the last bit. The CSR kernel screens
// an edge with the expression the relaxation used to produce T, as Brandes
// does, so it is exact there; before that (it subtracted on the way back)
// this failed at seed 1. The streaming engine is checked after a few
// set_weight batches of more such weights.
func TestRealWeightsDifferential(t *testing.T) {
	topologies := []diffTopology{
		{"grid-9x9", func(s int64) *Graph { return GridGraph(9, 9, 1, s) }},
		{"uniform-undirected", func(s int64) *Graph { return UniformGraph(120, 600, false, s) }},
		{"uniform-directed", func(s int64) *Graph { return UniformGraph(90, 500, true, s) }},
	}
	brandes := func(t *testing.T, g *Graph) []float64 {
		t.Helper()
		oracle, err := Compute(g, Options{Engine: EngineBrandes})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		return oracle.BC
	}
	matches := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for v := range want {
			if !almostEqual(got[v], want[v]) {
				t.Fatalf("%s: BC[%d] = %.17g, oracle %.17g", what, v, got[v], want[v])
			}
		}
	}
	for _, topo := range topologies {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", topo.name, seed), func(t *testing.T) {
				g := topo.build(seed)
				rng := rand.New(rand.NewSource(seed))
				for i := range g.Edges {
					g.Edges[i].W = 0.05 + rng.Float64()
				}
				g.Weighted = true
				want := brandes(t, g)

				res, err := core.MFBC(g, nil, core.Options{Batch: 32, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				matches(t, "core.MFBC", res.BC, want)
				out, err := Compute(g, Options{Engine: EngineMFBC, Procs: 1})
				if err != nil {
					t.Fatal(err)
				}
				matches(t, "Compute{Procs:1}", out.BC, want)

				dyn, err := NewDynamicBC(g, DynamicOptions{})
				if err != nil {
					t.Fatal(err)
				}
				shadow := g.Clone()
				for step := 0; step < 3; step++ {
					batch := make([]Mutation, 2)
					for i := range batch {
						e := shadow.Edges[rng.Intn(shadow.M())]
						batch[i] = Mutation{Op: MutSetWeight, U: e.U, V: e.V, W: 0.05 + rng.Float64()}
						if err := shadow.Apply(batch[i]); err != nil {
							t.Fatalf("step %d: shadow: %v", step, err)
						}
					}
					rep, err := dyn.Apply(batch)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					matches(t, fmt.Sprintf("NewDynamicBC step %d (%s)", step, rep.Strategy), dyn.Scores().BC, brandes(t, shadow))
				}
			})
		}
	}
	// ROADMAP item 2: the entry-list engines still subtract on the way back.
	t.Run("procs4", func(t *testing.T) {
		t.Skip("Procs > 1 is not exact on real weights yet: the backward sweep applies BrandesAction's ⊖ (T(s,u).w − A(v,u)) to a T built forward, and screenCentSided compares that difference with T(s,v).w, summed in another order (ROADMAP item 2)")
	})
}

// TestDifferentialApproxExactness: on vertex-transitive sources the sampling
// estimator with a full budget must equal the exact computation, and any
// budget must agree across engines for the same sampled sources.
func TestDifferentialApproxExactness(t *testing.T) {
	g := UniformGraph(36, 140, false, 4)
	exactMFBC, err := ApproximateBC(g, g.N, 1, Options{Engine: EngineMFBC})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Compute(g, Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	for v := range oracle.BC {
		if !almostEqual(exactMFBC.BC[v], oracle.BC[v]) {
			t.Fatalf("full-budget approximation diverged at %d", v)
		}
	}
	// Same samples+seed on different engines → identical estimates.
	a, err := ApproximateBC(g, 9, 5, Options{Engine: EngineMFBC})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproximateBC(g, 9, 5, Options{Engine: EngineMFBC, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ApproximateBC(g, 9, 5, Options{Engine: EngineCombBLAS, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.BC {
		if !almostEqual(a.BC[v], b.BC[v]) || !almostEqual(a.BC[v], c.BC[v]) {
			t.Fatalf("sampled estimates diverge across engines at %d: %g %g %g", v, a.BC[v], b.BC[v], c.BC[v])
		}
	}
}

// TestForcedPlanEmptyOperandBlocks pins forced decompositions where some
// ranks own zero entries of the stationary B operand — a star adjacency is
// empty outside row/column 0, a path adjacency outside its band. Such ranks
// can legitimately cache a nil B working set in the spgemm Session, so the
// cache must detect hits by presence, not by nil-ness: a nil-as-miss lookup
// re-enters the staging path on those ranks alone, which must never become
// a collective (today it happens to be a no-op; the Session now keys on the
// map's ok flag so it cannot regress into a lone-rank collective).
func TestForcedPlanEmptyOperandBlocks(t *testing.T) {
	graphs := []*Graph{
		starGraph(12),
		GridGraph(1, 12, 1, 0),
	}
	plans := []spgemm.Plan{
		{P1: 2, P2: 2, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB},
		{P1: 2, P2: 1, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarAC},
		{P1: 4, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB},
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarBC},
	}
	for _, g := range graphs {
		oracle, err := Compute(g, Options{Engine: EngineBrandes})
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range plans {
			plan := plan
			t.Run(fmt.Sprintf("%s/%s", g.Name, plan), func(t *testing.T) {
				res, err := core.MFBCDistributed(g, core.DistOptions{Procs: plan.Procs(), Batch: 4, Plan: &plan})
				if err != nil {
					t.Fatal(err)
				}
				for v := range oracle.BC {
					if !almostEqual(res.BC[v], oracle.BC[v]) {
						t.Fatalf("BC[%d]=%g want %g", v, res.BC[v], oracle.BC[v])
					}
				}
			})
		}
	}
}

func starGraph(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("star-%d", n), N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, Edge{U: 0, V: int32(i), W: 1})
	}
	return g
}
