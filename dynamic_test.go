package repro

// Differential harness for the streaming subsystem: seeded mutation
// sequences (inserts, deletes, weight changes, vertex additions) on the
// same topology families as difftest_test.go. After EVERY prefix of the
// sequence the maintained scores must match a from-scratch Compute on the
// mutated topology within 1e-9 — for the always-incremental engine, the
// default engine (threshold fallback), and an aggressive-fallback engine.
//
// MFBC_DIFFTEST_SEEDS=n widens the seed matrix, as in the static harness.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

func dynSeeds() []int64 {
	n := 1
	if s := os.Getenv("MFBC_DIFFTEST_SEEDS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(31 + 7*i)
	}
	return out
}

// dynMutation draws one valid mutation for g's current topology.
func dynMutation(rng *rand.Rand, g *Graph, weighted bool) Mutation {
	for tries := 0; tries < 200; tries++ {
		switch rng.Intn(12) {
		case 0:
			return Mutation{Op: MutAddVertex}
		case 1, 2, 3:
			if g.M() <= g.N/2 {
				continue
			}
			e := g.Edges[rng.Intn(g.M())]
			return Mutation{Op: MutRemoveEdge, U: e.U, V: e.V}
		case 4, 5:
			if !weighted || g.M() == 0 {
				continue
			}
			e := g.Edges[rng.Intn(g.M())]
			return Mutation{Op: MutSetWeight, U: e.U, V: e.V, W: float64(1 + rng.Intn(9))}
		default:
			u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
			if u == v {
				continue
			}
			if _, exists := g.FindEdge(u, v); exists {
				continue
			}
			w := 1.0
			if weighted {
				w = float64(1 + rng.Intn(9))
			}
			return Mutation{Op: MutAddEdge, U: u, V: v, W: w}
		}
	}
	return Mutation{Op: MutAddVertex}
}

func TestDynamicDifferential(t *testing.T) {
	topologies := []struct {
		name     string
		build    func(seed int64) *Graph
		weighted bool
	}{
		{"rmat", func(seed int64) *Graph { return RMATGraph(6, 6, seed) }, false},
		{"rmat-weighted", func(seed int64) *Graph {
			g := RMATGraph(6, 6, seed)
			g.AddUniformWeights(1, 9, seed+1)
			return g
		}, true},
		{"uniform-directed", func(seed int64) *Graph { return UniformGraph(48, 150, true, seed) }, false},
		{"grid-weighted", func(seed int64) *Graph { return GridGraph(6, 6, 8, seed) }, true},
	}
	engines := []struct {
		name string
		opt  DynamicOptions
	}{
		{"incremental", DynamicOptions{DirtyThreshold: -1}},
		{"default", DynamicOptions{}},
		{"eager-full", DynamicOptions{DirtyThreshold: 0.02}},
	}
	for _, topo := range topologies {
		for _, eng := range engines {
			for _, seed := range dynSeeds() {
				t.Run(fmt.Sprintf("%s/%s/seed%d", topo.name, eng.name, seed), func(t *testing.T) {
					g := topo.build(seed)
					dyn, err := NewDynamicBC(g, eng.opt)
					if err != nil {
						t.Fatal(err)
					}
					shadow := g.Clone()
					rng := rand.New(rand.NewSource(seed * 17))
					for step := 0; step < 6; step++ {
						batch := make([]Mutation, 1+rng.Intn(3))
						for i := range batch {
							batch[i] = dynMutation(rng, shadow, topo.weighted)
							if err := shadow.Apply(batch[i]); err != nil {
								t.Fatalf("step %d: shadow: %v", step, err)
							}
						}
						rep, err := dyn.Apply(batch)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						snap := dyn.Scores()
						if snap.Version != rep.Version || snap.Version != Fingerprint(shadow) {
							t.Fatalf("step %d: version mismatch vs shadow replay", step)
						}
						want, err := Compute(shadow, Options{Engine: EngineMFBC})
						if err != nil {
							t.Fatalf("step %d: from-scratch: %v", step, err)
						}
						if len(snap.BC) != len(want.BC) {
							t.Fatalf("step %d: score length %d vs %d", step, len(snap.BC), len(want.BC))
						}
						for v := range want.BC {
							if !almostEqual(snap.BC[v], want.BC[v]) {
								t.Fatalf("step %d (%s): bc[%d] = %v, from-scratch %v",
									step, rep.Strategy, v, snap.BC[v], want.BC[v])
							}
						}
					}
					st := dyn.Stats()
					if st.Applies != 6 {
						t.Fatalf("applies = %d", st.Applies)
					}
					if eng.name == "incremental" && st.FullRecomputes != 0 {
						t.Fatalf("always-incremental engine recomputed fully: %+v", st)
					}
				})
			}
		}
	}
}

// TestDynamicDistributedDifferential replays seeded mutation sequences
// through distributed-mode engines — procs 2, 4, 6 and 8 under the
// automatic plan search — comparing every prefix against a from-scratch
// repro.Compute at 1e-9. On these graphs the search picks a 1D plan at
// every p. The façade takes no forced plan or search constraint, so the
// p2-1d, p4-2d, p4-3d and p4-forced rows replay the same sequences through
// the engine's session (core.DistSession) under core.DistOptions' ablation,
// driven as the engine drives it; the engine itself under those plans is
// internal/dynamic's TestDistributedIncrementalMatchesFromScratch.
// Incremental applies run fused, or two-region on vertex growth; that
// delta-patched operands match full redistribution bit for bit is pinned
// one layer down (core.TestSessionPatchMatchesReset). MFBC_DIFFTEST_SEEDS
// widens the seed matrix as in the static harness.
func TestDynamicDistributedDifferential(t *testing.T) {
	topologies := []struct {
		name     string
		build    func(seed int64) *Graph
		weighted bool
	}{
		{"rmat", func(seed int64) *Graph { return RMATGraph(5, 6, seed) }, false},
		{"grid-weighted", func(seed int64) *Graph { return GridGraph(6, 6, 8, seed) }, true},
	}
	forced := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}
	engines := []struct {
		name    string
		opt     DynamicOptions
		ablated *core.DistOptions // non-nil: drive a session under this ablation instead
	}{
		{"p2", DynamicOptions{Procs: 2, Workers: 1}, nil},
		{"p2-1d", DynamicOptions{}, &core.DistOptions{Procs: 2, Workers: 1, Constraint: spgemm.Only1D}},
		{"p4-2d", DynamicOptions{}, &core.DistOptions{Procs: 4, Workers: 1, Constraint: spgemm.Only2D}},
		{"p4-3d", DynamicOptions{}, &core.DistOptions{Procs: 4, Workers: 1, Constraint: spgemm.Only3D}},
		{"p4-forced", DynamicOptions{}, &core.DistOptions{Procs: 4, Workers: 1, Plan: &forced}},
		{"p4", DynamicOptions{Procs: 4, Workers: 1}, nil},
		{"p6", DynamicOptions{Procs: 6, Workers: 1}, nil},
		{"p8", DynamicOptions{Procs: 8, Workers: 1}, nil},
	}
	for _, topo := range topologies {
		for _, eng := range engines {
			for _, seed := range dynSeeds() {
				t.Run(fmt.Sprintf("%s/%s/seed%d", topo.name, eng.name, seed), func(t *testing.T) {
					g := topo.build(seed)
					// apply hands one batch to the row's engine or session and
					// returns the scores of next, the shadow replay after it.
					var apply func(step int, next *Graph, batch []Mutation) (bc []float64, desc string)
					var commBytes func() int64
					if eng.ablated != nil {
						s := newAblatedSession(t, g, *eng.ablated)
						apply = func(step int, next *Graph, batch []Mutation) ([]float64, string) {
							return s.apply(t, step, next.Clone(), batch)
						}
						commBytes = func() int64 { return s.bytes }
					} else {
						dyn, err := NewDynamicBC(g, eng.opt)
						if err != nil {
							t.Fatal(err)
						}
						apply = func(step int, next *Graph, batch []Mutation) ([]float64, string) {
							rep, err := dyn.Apply(batch)
							if err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							snap := dyn.Scores()
							if snap.Version != Fingerprint(next) {
								t.Fatalf("step %d: version mismatch vs shadow replay", step)
							}
							return snap.BC, fmt.Sprintf("%s, fused=%v", rep.Strategy, rep.Fused)
						}
						commBytes = func() int64 {
							if st := dyn.Stats(); st.Comm.Runs > 0 {
								return st.Comm.Bytes
							}
							return 0
						}
					}
					shadow := g.Clone()
					rng := rand.New(rand.NewSource(seed * 13))
					for step := 0; step < 4; step++ {
						batch := make([]Mutation, 1+rng.Intn(2))
						for i := range batch {
							batch[i] = dynMutation(rng, shadow, topo.weighted)
							if err := shadow.Apply(batch[i]); err != nil {
								t.Fatalf("step %d: shadow: %v", step, err)
							}
						}
						bc, desc := apply(step, shadow, batch)
						want, err := Compute(shadow, Options{Engine: EngineMFBC})
						if err != nil {
							t.Fatalf("step %d: from-scratch: %v", step, err)
						}
						if len(bc) != len(want.BC) {
							t.Fatalf("step %d (%s): %d scores, from-scratch %d", step, desc, len(bc), len(want.BC))
						}
						for v := range want.BC {
							if !almostEqual(bc[v], want.BC[v]) {
								t.Fatalf("step %d (%s): bc[%d] = %v, from-scratch %v",
									step, desc, v, bc[v], want.BC[v])
							}
						}
					}
					// The runs really happened on the machine model.
					if commBytes() == 0 {
						t.Fatal("distributed runs accumulated no modeled communication")
					}
				})
			}
		}
	}
}

// ablatedSession replays a mutation stream through a core.DistSession the
// way the streaming engine drives its own: an initial full run, then one
// fused region per batch on a fixed vertex set, Patch then Run when the
// batch grows it. Here every vertex is a pivot, so each apply's new side is
// the full score vector.
type ablatedSession struct {
	opt   core.DistOptions
	sess  *core.DistSession
	bytes int64
}

func newAblatedSession(t *testing.T, g *Graph, opt core.DistOptions) *ablatedSession {
	t.Helper()
	sess, err := core.NewDistSession(g.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !planAdmitted(r.Plan, opt) {
		t.Fatalf("initial run ran plan %s outside the ablation", r.Plan)
	}
	return &ablatedSession{opt: opt, sess: sess, bytes: r.Stats.MaxCost.Bytes}
}

// apply advances the session to next, its graph after batch, and returns
// next's scores with a description of the region that computed them.
func (a *ablatedSession) apply(t *testing.T, step int, next *Graph, batch []Mutation) ([]float64, string) {
	t.Helper()
	type key [2]int32
	seen := map[key]bool{}
	var edges []key
	for _, m := range batch {
		if m.Op == MutAddVertex {
			continue
		}
		u, v := m.U, m.V
		if !next.Directed && u > v {
			u, v = v, u
		}
		if !seen[key{u, v}] {
			seen[key{u, v}] = true
			edges = append(edges, key{u, v})
		}
	}
	diffs := make([]core.EdgeDiff, len(edges))
	for i, e := range edges {
		w, ok := next.FindEdge(e[0], e[1])
		diffs[i] = core.EdgeDiff{U: e[0], V: e[1], W: w, Present: ok}
	}
	var (
		bc    []float64
		plan  spgemm.Plan
		bytes int64
		desc  string
	)
	if next.N == a.sess.Graph().N {
		all := make([]int32, next.N)
		for v := range all {
			all[v] = int32(v)
		}
		r, err := a.sess.ApplyIncrementalCtx(context.Background(), nil, next, nil, diffs, all)
		if err != nil {
			t.Fatalf("step %d: fused apply: %v", step, err)
		}
		bc, plan, bytes, desc = r.NewBC, r.Plan, r.Stats.MaxCost.Bytes, "fused"
	} else {
		a.sess.Patch(next, nil, diffs)
		r, err := a.sess.Run(nil)
		if err != nil {
			t.Fatalf("step %d: run after growth: %v", step, err)
		}
		bc, plan, bytes, desc = r.BC, r.Plan, r.Stats.MaxCost.Bytes, "patch+run"
	}
	a.bytes += bytes
	if !planAdmitted(plan, a.opt) {
		t.Fatalf("step %d (%s): ran plan %s outside the ablation", step, desc, plan)
	}
	return bc, desc + " under " + plan.String()
}

// planAdmitted reports whether p is opt's forced plan or, with none forced,
// one opt's search constraint admits.
func planAdmitted(p spgemm.Plan, opt core.DistOptions) bool {
	if opt.Plan != nil {
		return p == *opt.Plan
	}
	switch opt.Constraint {
	case spgemm.Only1D:
		return p.P2 == 1 && p.P3 == 1
	case spgemm.Only2D:
		return p.P1 == 1
	case spgemm.Only3D:
		return p.P1 > 1 && p.P2*p.P3 > 1
	}
	return true
}

// TestDynamicAgainstBrandesOracle cross-checks the maintained scores
// against the textbook oracle (not just MFBC-vs-MFBC) after a burst of
// mutations.
func TestDynamicAgainstBrandesOracle(t *testing.T) {
	g := RMATGraph(6, 8, 5)
	dyn, err := NewDynamicBC(g, DynamicOptions{DirtyThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	shadow := g.Clone()
	var batch []Mutation
	for i := 0; i < 10; i++ {
		m := dynMutation(rng, shadow, false)
		if err := shadow.Apply(m); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, m)
	}
	if _, err := dyn.Apply(batch); err != nil {
		t.Fatal(err)
	}
	oracle, err := Compute(dyn.Graph(), Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	snap := dyn.Scores()
	for v := range oracle.BC {
		if !almostEqual(snap.BC[v], oracle.BC[v]) {
			t.Fatalf("bc[%d] = %v, Brandes %v", v, snap.BC[v], oracle.BC[v])
		}
	}
}

// TestDynamicMutationsReexported pins the façade surface: graph-layer ops
// round-trip through the repro aliases.
func TestDynamicMutationsReexported(t *testing.T) {
	if MutAddEdge != graph.OpAddEdge || MutRemoveEdge != graph.OpRemoveEdge ||
		MutSetWeight != graph.OpSetWeight || MutAddVertex != graph.OpAddVertex {
		t.Fatal("mutation op aliases drifted from internal/graph")
	}
	g := GridGraph(3, 3, 1, 1)
	dyn, err := NewDynamicBC(g, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.Apply([]Mutation{{Op: "bogus"}}); err == nil {
		t.Fatal("unknown op accepted through the façade")
	}
	rep, err := dyn.Apply([]Mutation{{Op: MutAddVertex}, {Op: MutAddEdge, U: 0, V: 9, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 10 || rep.Applied != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if got := dyn.Graph().N; got != 10 {
		t.Fatalf("graph n = %d", got)
	}
}

// TestDynamicGraphDoesNotCopyScores: Graph() hands back the current
// snapshot's topology pointer; it must not pay Scores()'s copy of the whole
// score vector (examples/streaming and rankrun call it every round).
func TestDynamicGraphDoesNotCopyScores(t *testing.T) {
	dyn, err := NewDynamicBC(GridGraph(8, 8, 1, 1), DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Graph() != dyn.Scores().Graph {
		t.Fatal("Graph() is not the current snapshot's topology")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = dyn.Graph() }); allocs != 0 {
		t.Fatalf("Graph() allocates %v times per call, want 0", allocs)
	}
}

// TestDynamicFacadeIsEngine: the façade adds nothing to, and takes nothing
// from, the engine's descriptions. ApplyCtx's report equals the one an
// identically configured bare engine returns for the same batch (wall-clock
// fields aside), and Scores is the engine's own snapshot, for an
// incremental and a full apply on the shared-memory path and on the
// simulated machine. The helper below takes a *dynamic.Report: a
// mirrored ApplyReport struct would not compile here.
func TestDynamicFacadeIsEngine(t *testing.T) {
	scrubWall := func(r *dynamic.Report) {
		r.WallMS, r.Comm.WallSec = 0, 0
		r.Phases = slices.Clone(r.Phases) // the engine's snapshot shares the slice
		for i := range r.Phases {
			r.Phases[i].WallMS = 0
		}
	}
	g := GridGraph(6, 6, 3, 7)
	batch := []Mutation{{Op: MutSetWeight, U: g.Edges[5].U, V: g.Edges[5].V, W: 9}}
	for _, procs := range []int{1, 4} {
		for _, tc := range []struct {
			strategy string
			opt      DynamicOptions
		}{
			{dynamic.StrategyIncremental, DynamicOptions{DirtyThreshold: -1}},
			{dynamic.StrategyFull, DynamicOptions{DirtyThreshold: 1e-9}},
		} {
			t.Run(fmt.Sprintf("%s/p%d", tc.strategy, procs), func(t *testing.T) {
				tc.opt.Procs, tc.opt.Workers = procs, 1
				dyn, err := NewDynamicBC(g, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := dynamic.New(g, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dyn.ApplyCtx(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.ApplyCtx(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if got.Strategy != tc.strategy || (procs > 1) != (got.Comm.Runs > 0) {
					t.Fatalf("apply took strategy %q with %d machine runs: %+v", got.Strategy, got.Comm.Runs, got)
				}
				scrubWall(&got)
				scrubWall(&want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("façade report differs from the engine's:\n got %+v\nwant %+v", got, want)
				}
				if snap := dyn.Scores(); !reflect.DeepEqual(snap, dyn.eng.Snapshot()) {
					t.Fatalf("Scores() is not the engine's snapshot: %+v", snap)
				}
			})
		}
	}
}
