package dynamic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// fromScratch recomputes exact scores on g's current topology.
func fromScratch(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	r, err := core.MFBC(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("from-scratch MFBC: %v", err)
	}
	return r.BC
}

func compareScores(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", ctx, len(got), len(want))
	}
	for v := range got {
		if !almostEqual(got[v], want[v]) {
			t.Fatalf("%s: bc[%d] = %v, want %v", ctx, v, got[v], want[v])
		}
	}
}

// randomMutation picks one valid mutation for g's current topology.
func randomMutation(rng *rand.Rand, g *graph.Graph, weighted bool) graph.Mutation {
	for tries := 0; tries < 200; tries++ {
		switch rng.Intn(10) {
		case 0: // grow the vertex set occasionally
			return graph.Mutation{Op: graph.OpAddVertex}
		case 1, 2, 3: // remove an existing edge (keep some density)
			if g.M() <= g.N/2 {
				continue
			}
			e := g.Edges[rng.Intn(g.M())]
			return graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V}
		case 4, 5: // reweight an existing edge
			if !weighted || g.M() == 0 {
				continue
			}
			e := g.Edges[rng.Intn(g.M())]
			return graph.Mutation{Op: graph.OpSetWeight, U: e.U, V: e.V, W: float64(1 + rng.Intn(9))}
		default: // insert a fresh edge
			u := int32(rng.Intn(g.N))
			v := int32(rng.Intn(g.N))
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
			return graph.Mutation{Op: graph.OpAddEdge, U: u, V: v, W: w}
		}
	}
	return graph.Mutation{Op: graph.OpAddVertex}
}

// TestIncrementalMatchesFromScratch is the engine-level differential test:
// after every applied batch, the maintained scores must match a from-
// scratch recomputation on the mutated topology. DirtyThreshold < 0 forces
// the incremental path so the delta bookkeeping itself is what's tested.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *graph.Graph
		weighted bool
	}{
		{"rmat", func() *graph.Graph { return graph.RMAT(graph.DefaultRMAT(6, 6, 11)) }, false},
		{"uniform-directed", func() *graph.Graph { return graph.Uniform(48, 160, true, 12) }, false},
		{"grid-weighted", func() *graph.Graph { return graph.Grid2D(7, 7, 8, 13) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			eng, err := New(g, Config{DirtyThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			compareScores(t, "initial", eng.Snapshot().BC, fromScratch(t, g))
			rng := rand.New(rand.NewSource(99))
			shadow := g.Clone()
			for step := 0; step < 8; step++ {
				batch := make([]graph.Mutation, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = randomMutation(rng, shadow, tc.weighted)
					if err := shadow.Apply(batch[i]); err != nil {
						t.Fatalf("step %d: shadow apply: %v", step, err)
					}
				}
				rep, err := eng.ApplyCtx(context.Background(), batch)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if rep.Strategy != StrategyIncremental {
					t.Fatalf("step %d: strategy %q, want incremental", step, rep.Strategy)
				}
				snap := eng.Snapshot()
				if snap.Version != graph.Fingerprint(shadow) {
					t.Fatalf("step %d: engine graph diverged from shadow replay", step)
				}
				compareScores(t, tc.name, snap.BC, fromScratch(t, shadow))
			}
			st := eng.Stats()
			if st.Applies != 8 || st.IncrementalRuns != 8 || st.FullRecomputes != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestDirtyThresholdFallsBackToFull: a batch touching most of the graph
// must trigger full recomputation when the threshold is low.
func TestDirtyThresholdFallsBackToFull(t *testing.T) {
	g := graph.Grid2D(6, 6, 1, 1)
	eng, err := New(g, Config{DirtyThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting a central edge affects shortest paths from nearly every
	// source in a mesh.
	rep, err := eng.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpRemoveEdge, U: g.Edges[30].U, V: g.Edges[30].V}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyFull {
		t.Fatalf("strategy = %q, want full (affected %d/%d)", rep.Strategy, rep.Affected, rep.N)
	}
	shadow := g.Clone()
	if err := shadow.RemoveEdge(g.Edges[30].U, g.Edges[30].V); err != nil {
		t.Fatal(err)
	}
	compareScores(t, "full fallback", eng.Snapshot().BC, fromScratch(t, shadow))
	if st := eng.Stats(); st.FullRecomputes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAffectedSourcesLocal: an edge inserted in a far corner of a long
// path graph must not force recomputing sources that cannot reach it with
// a changed shortest path.
func TestAffectedSourcesLocal(t *testing.T) {
	// Two path components: 0..19 and 20..39.
	g := &graph.Graph{Name: "twopaths", N: 40}
	for i := int32(0); i < 19; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: i, V: i + 1, W: 1})
		g.Edges = append(g.Edges, graph.Edge{U: 20 + i, V: 21 + i, W: 1})
	}
	eng, err := New(g, Config{DirtyThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A chord inside the second component leaves the first component's
	// sources untouched.
	rep, err := eng.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpAddEdge, U: 25, V: 30, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected == 0 || rep.Affected > 20 {
		t.Fatalf("affected = %d, want within (0, 20]: component 1 must be skipped", rep.Affected)
	}
	shadow := g.Clone()
	if err := shadow.AddEdge(25, 30, 1); err != nil {
		t.Fatal(err)
	}
	compareScores(t, "local insert", eng.Snapshot().BC, fromScratch(t, shadow))
}

// TestNoopBatchSkipsCompute: add+remove of the same edge in one batch is a
// structural no-op, so no source should be re-run.
func TestNoopBatchSkipsCompute(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(5, 6, 3))
	eng, err := New(g, Config{DirtyThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var u, v int32
	for u = 0; u < int32(g.N); u++ {
		if _, ok := g.FindEdge(u, u+1); !ok && int(u+1) < g.N {
			v = u + 1
			break
		}
	}
	before := eng.Snapshot()
	rep, err := eng.ApplyCtx(context.Background(), []graph.Mutation{
		{Op: graph.OpAddEdge, U: u, V: v, W: 1},
		{Op: graph.OpRemoveEdge, U: u, V: v},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 0 {
		t.Fatalf("affected = %d for a transient edge, want 0", rep.Affected)
	}
	after := eng.Snapshot()
	if after.Version != before.Version {
		t.Fatal("structural no-op changed the fingerprint")
	}
	compareScores(t, "noop", after.BC, before.BC)
}

// TestApplyErrorLeavesStateUntouched: an invalid mutation mid-batch must
// not change the observable snapshot (batches are atomic).
func TestApplyErrorLeavesStateUntouched(t *testing.T) {
	g := graph.Grid2D(4, 4, 1, 1)
	eng, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	_, err = eng.ApplyCtx(context.Background(), []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 5, W: 1},
		{Op: graph.OpAddEdge, U: 0, V: 99, W: 1}, // out of range
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	after := eng.Snapshot()
	if after.Version != before.Version || after.Seq != before.Seq {
		t.Fatal("failed batch mutated the snapshot")
	}
	if st := eng.Stats(); st.Applies != 0 {
		t.Fatalf("failed batch counted: %+v", st)
	}
}

// TestConcurrentReadersSeeConsistentSnapshots: readers racing a writer
// must only ever observe (version, scores) pairs that match one installed
// snapshot — scores always belong to the version they arrived with.
func TestConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	g := graph.Grid2D(5, 5, 1, 1)
	eng, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Precompute the expected scores of every version the writer installs.
	expect := map[uint64][]float64{graph.Fingerprint(g): fromScratch(t, g)}
	shadow := g.Clone()
	muts := []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 24, W: 1},
		{Op: graph.OpRemoveEdge, U: 0, V: 1},
		{Op: graph.OpAddEdge, U: 3, V: 17, W: 1},
		{Op: graph.OpAddEdge, U: 7, V: 21, W: 1},
	}
	for _, m := range muts {
		if err := shadow.Apply(m); err != nil {
			t.Fatal(err)
		}
		expect[graph.Fingerprint(shadow)] = fromScratch(t, shadow)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.Snapshot()
				want, ok := expect[snap.Version]
				if !ok {
					errs <- "reader saw unknown version"
					return
				}
				if len(snap.BC) != len(want) {
					errs <- "reader saw torn scores (length)"
					return
				}
				for v := range want {
					if !almostEqual(snap.BC[v], want[v]) {
						errs <- "reader saw scores inconsistent with their version"
						return
					}
				}
			}
		}()
	}
	for _, m := range muts {
		if _, err := eng.ApplyCtx(context.Background(), []graph.Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestApplyNeverMutatesPublishedSnapshot: Apply must treat installed
// snapshots as immutable even when the input graph's edge slice is not in
// canonical order — a reader iterating Snapshot().Graph.Edges while a
// batch applies must see the slice untouched (runs under -race in CI).
func TestApplyNeverMutatesPublishedSnapshot(t *testing.T) {
	g := &graph.Graph{Name: "unsorted", N: 6, Edges: []graph.Edge{
		{U: 4, V: 5, W: 1}, {U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
		{U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1},
	}}
	eng, err := New(g, Config{DirtyThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	before := append([]graph.Edge(nil), snap.Graph.Edges...)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range snap.Graph.Edges {
				_ = e.W
			}
		}
	}()
	if _, err := eng.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}
	<-done
	for i, e := range snap.Graph.Edges {
		if e != before[i] {
			t.Fatalf("Apply reordered the published snapshot's edges: %+v vs %+v",
				snap.Graph.Edges, before)
		}
	}
}

// seatAblation replaces e's machine session with one over the committed
// snapshot whose plan search runs under core.DistOptions' decomposition
// ablation (a forced plan, or a 1D/2D/3D constraint). Config carries
// neither, and on these small graphs the automatic search picks a 1D plan
// at every p, so this is how the differential below drives the engine's
// applies through the other plan families.
func seatAblation(t *testing.T, e *Engine, plan *spgemm.Plan, cons spgemm.Constraint) {
	t.Helper()
	sess, err := core.NewDistSession(e.cur.g, core.DistOptions{
		Procs: e.cfg.Procs, Workers: e.cfg.Workers, Plan: plan, Constraint: cons,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.dist = sess
}

// planAdmitted reports whether the reported plan s is the forced plan, or,
// with none forced, one the constraint admits.
func planAdmitted(s string, forced *spgemm.Plan, cons spgemm.Constraint) bool {
	if forced != nil {
		return s == forced.String()
	}
	var p1, p2, p3 int
	if _, err := fmt.Sscanf(s, "%dx%dx%d/", &p1, &p2, &p3); err != nil {
		return false
	}
	switch cons {
	case spgemm.Only1D:
		return p2 == 1 && p3 == 1
	case spgemm.Only2D:
		return p1 == 1
	case spgemm.Only3D:
		return p1 > 1 && p2*p3 > 1
	}
	return true
}

// TestDistributedIncrementalMatchesFromScratch is the distributed-mode
// differential test: engines running their sweeps on the simulated machine
// (procs 2, 4, 6 and 8 under the automatic plan search; procs 2 and 4
// under the 1D/2D/3D constraints and one forced plan) replay seeded
// mutation sequences; after every applied prefix the maintained scores must
// match a from-scratch sequential recomputation at 1e-9, and distributed
// applies must report modeled communication and a plan the row admits.
func TestDistributedIncrementalMatchesFromScratch(t *testing.T) {
	topologies := []struct {
		name     string
		build    func() *graph.Graph
		weighted bool
	}{
		{"rmat", func() *graph.Graph { return graph.RMAT(graph.DefaultRMAT(5, 6, 11)) }, false},
		{"grid-weighted", func() *graph.Graph { return graph.Grid2D(6, 6, 8, 13) }, true},
	}
	forced := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}
	engines := []struct {
		name string
		cfg  Config
		plan *spgemm.Plan
		cons spgemm.Constraint
	}{
		{"p2", Config{Procs: 2, DirtyThreshold: -1, Workers: 1}, nil, spgemm.AnyPlan},
		{"p2-1d", Config{Procs: 2, DirtyThreshold: -1, Workers: 1}, nil, spgemm.Only1D},
		{"p4-2d", Config{Procs: 4, DirtyThreshold: -1, Workers: 1}, nil, spgemm.Only2D},
		{"p4-3d", Config{Procs: 4, DirtyThreshold: -1, Workers: 1}, nil, spgemm.Only3D},
		{"p4-forced", Config{Procs: 4, DirtyThreshold: -1, Workers: 1}, &forced, spgemm.AnyPlan},
		{"p4", Config{Procs: 4, DirtyThreshold: -1, Workers: 1}, nil, spgemm.AnyPlan},
		{"p6", Config{Procs: 6, DirtyThreshold: -1, Workers: 1}, nil, spgemm.AnyPlan},
		{"p8", Config{Procs: 8, DirtyThreshold: -1, Workers: 1}, nil, spgemm.AnyPlan},
	}
	for _, topo := range topologies {
		for _, eng := range engines {
			t.Run(topo.name+"/"+eng.name, func(t *testing.T) {
				g := topo.build()
				e, err := New(g, eng.cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareScores(t, "initial", e.Snapshot().BC, fromScratch(t, g))
				if e.Snapshot().Comm.Runs == 0 || e.Snapshot().Plan == "" {
					t.Fatalf("initial distributed compute reported no comm/plan: %+v", e.Snapshot())
				}
				if eng.plan != nil || eng.cons != spgemm.AnyPlan {
					seatAblation(t, e, eng.plan, eng.cons)
					r, err := e.dist.Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					compareScores(t, "initial "+eng.name, r.BC, fromScratch(t, g))
					if p := r.Plan.String(); !planAdmitted(p, eng.plan, eng.cons) {
						t.Fatalf("initial %s sweep ran plan %s", eng.name, p)
					}
				}
				rng := rand.New(rand.NewSource(41))
				shadow := g.Clone()
				var fusedSteps int64
				for step := 0; step < 4; step++ {
					oldN := shadow.N
					batch := make([]graph.Mutation, 1+rng.Intn(2))
					for i := range batch {
						batch[i] = randomMutation(rng, shadow, topo.weighted)
						if err := shadow.Apply(batch[i]); err != nil {
							t.Fatalf("step %d: shadow apply: %v", step, err)
						}
					}
					rep, err := e.ApplyCtx(context.Background(), batch)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if rep.Strategy != StrategyIncremental {
						t.Fatalf("step %d: strategy %q, want incremental", step, rep.Strategy)
					}
					// One apply path per mode: fused exactly when there is
					// something to sweep on a fixed vertex set.
					if want := rep.Affected > 0 && shadow.N == oldN; rep.Fused != want {
						t.Fatalf("step %d: fused = %v, want %v (affected %d, n %d→%d)",
							step, rep.Fused, want, rep.Affected, oldN, shadow.N)
					}
					if rep.Fused {
						fusedSteps++
					}
					if rep.Affected > 0 && (rep.Comm.Runs == 0 || rep.Plan == "") {
						t.Fatalf("step %d: distributed apply with %d affected reported no comm/plan: %+v",
							step, rep.Affected, rep)
					}
					if rep.Plan != "" && !planAdmitted(rep.Plan, eng.plan, eng.cons) {
						t.Fatalf("step %d: %s apply ran plan %s", step, eng.name, rep.Plan)
					}
					snap := e.Snapshot()
					if snap.Version != graph.Fingerprint(shadow) {
						t.Fatalf("step %d: engine graph diverged from shadow replay", step)
					}
					compareScores(t, topo.name+"/"+eng.name, snap.BC, fromScratch(t, shadow))
				}
				st := e.Stats()
				if st.Applies != 4 || st.FullRecomputes != 0 {
					t.Fatalf("stats = %+v", st)
				}
				if st.FusedApplies != fusedSteps || st.FusedApplies+st.TwoRegionApplies != 4 {
					t.Fatalf("fused/two-region counters off (%d fused steps): %+v", fusedSteps, st)
				}
				if st.Comm.Runs == 0 {
					t.Fatalf("no machine runs accumulated: %+v", st.Comm)
				}
			})
		}
	}
}

// TestDistributedApplyCheaperThanFromScratch is the amortization
// acceptance: for a small-diff batch, the modeled communication of the
// distributed incremental apply (old-side + new-side runs on resident
// operands) must be strictly less than a from-scratch distributed run on
// the same post-batch graph.
func TestDistributedApplyCheaperThanFromScratch(t *testing.T) {
	// Continuous weights keep shortest paths near-unique, so a single
	// reweight touches few sources.
	g := graph.Grid2D(10, 10, 1, 1)
	wrng := rand.New(rand.NewSource(17))
	for i := range g.Edges {
		g.Edges[i].W = 1 + 29*wrng.Float64()
	}
	g.Weighted = true
	e, err := New(g, Config{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Probe for a congestion-style reweight with a genuinely small
	// footprint (the regime the amortization targets): the edge whose
	// shortest-path involvement marks the fewest sources.
	st := newState(g, 0)
	best, bestAff := g.Edges[0], g.N+1
	for _, cand := range g.Edges[:40] {
		ng := g.Clone()
		if err := ng.SetWeight(cand.U, cand.V, cand.W*1.07); err != nil {
			t.Fatal(err)
		}
		m := []graph.Mutation{{Op: graph.OpSetWeight, U: cand.U, V: cand.V, W: cand.W * 1.07}}
		aff := affectedSources(st, newState(ng, 1), batchDiff(g, ng, m), 1)
		if n := len(aff); n > 0 && n < bestAff {
			best, bestAff = cand, n
		}
	}
	rep, err := e.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpSetWeight, U: best.U, V: best.V, W: best.W * 1.07}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyIncremental {
		t.Fatalf("strategy %q (affected %d/%d), want incremental", rep.Strategy, rep.Affected, rep.N)
	}
	full, err := core.MFBCDistributed(e.Snapshot().Graph, core.DistOptions{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Words moved (the paper's W) is the bandwidth measure the stationary
	// operands amortize; latency (S) scales with frontier iterations, not
	// batch width, and the incremental apply pays it for two regions.
	if rep.Comm.Bytes >= full.Stats.MaxCost.Bytes {
		t.Fatalf("incremental apply moved %d modeled bytes (affected %d/%d), from-scratch run %d: no amortization",
			rep.Comm.Bytes, rep.Affected, rep.N, full.Stats.MaxCost.Bytes)
	}
}

// TestFusedApplyReportsPhases: a fused apply's report carries the
// diff/patch/sweep/reduce attribution, and the snapshot exposes the latest
// breakdown.
func TestFusedApplyReportsPhases(t *testing.T) {
	g := graph.Grid2D(6, 6, 1, 7)
	e, err := New(g, Config{Procs: 4, DirtyThreshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eg := e.Snapshot().Graph
	rep, err := e.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpSetWeight, U: eg.Edges[0].U, V: eg.Edges[0].V, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fused {
		t.Fatalf("expected a fused apply, got %+v", rep)
	}
	names := map[string]bool{}
	var msgs, bytes, flops int64
	for _, ph := range rep.Phases {
		names[ph.Name] = true
		msgs += ph.Msgs
		bytes += ph.Bytes
		flops += ph.Flops
	}
	for _, want := range []string{"diff", "patch", "sweep", "reduce"} {
		if !names[want] {
			t.Fatalf("phase %q missing: %+v", want, rep.Phases)
		}
	}
	// Latency charges are uniform across ranks, so the phase message sums
	// reproduce the apply total exactly; bytes and flops are per-phase
	// critical-path maxima, which can only meet or exceed the single
	// end-to-end critical path.
	if msgs != rep.Comm.Msgs {
		t.Fatalf("phase msg sum %d != apply total %d", msgs, rep.Comm.Msgs)
	}
	if bytes < rep.Comm.Bytes || flops < rep.Comm.Flops {
		t.Fatalf("phase sums (W=%d F=%d) below apply totals %+v", bytes, flops, rep.Comm)
	}
	snap := e.Snapshot()
	if len(snap.Phases) != len(rep.Phases) {
		t.Fatalf("snapshot lost the phase breakdown: %+v", snap.Phases)
	}
}

// TestFusedFallsBackOnVertexGrowth: an AddVertex batch changes the operand
// dimensions, so the apply must take the two-region path (session reset)
// and still produce correct scores.
func TestFusedFallsBackOnVertexGrowth(t *testing.T) {
	g := graph.Grid2D(5, 5, 1, 9)
	e, err := New(g, Config{Procs: 4, DirtyThreshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shadow := e.Snapshot().Graph.Clone()
	batch := []graph.Mutation{
		{Op: graph.OpAddVertex},
		{Op: graph.OpAddEdge, U: 3, V: 25, W: 1},
	}
	if _, err := shadow.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	rep, err := e.ApplyCtx(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused {
		t.Fatal("vertex growth must not fuse")
	}
	compareScores(t, "growth apply", e.Snapshot().BC, fromScratch(t, shadow))
	if st := e.Stats(); st.TwoRegionApplies != 1 {
		t.Fatalf("growth apply not counted as two-region: %+v", st)
	}
}

// TestFusedNoopAndEmptyAffectedSkipRegions: a structural no-op batch (and
// any batch with no affected sources) must not launch a fused region on a
// distributed engine — no modeled communication, no fused flag, and the
// snapshot keeps the last real plan instead of a zero-value one.
func TestFusedNoopAndEmptyAffectedSkipRegions(t *testing.T) {
	g := graph.Grid2D(5, 5, 1, 3)
	e, err := New(g, Config{Procs: 4, DirtyThreshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	planBefore := e.Snapshot().Plan
	if planBefore == "" {
		t.Fatal("initial distributed compute must record a plan")
	}
	var u, v int32 = 0, 7
	if _, ok := g.FindEdge(u, v); ok {
		t.Fatal("test edge unexpectedly present")
	}
	rep, err := e.ApplyCtx(context.Background(), []graph.Mutation{
		{Op: graph.OpAddEdge, U: u, V: v, W: 1},
		{Op: graph.OpRemoveEdge, U: u, V: v}, // transient: effective diff empty
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused {
		t.Fatalf("no-op batch reported fused: %+v", rep)
	}
	if rep.Comm.Runs != 0 || rep.Comm.Msgs != 0 {
		t.Fatalf("no-op batch ran a machine region: %+v", rep.Comm)
	}
	snap := e.Snapshot()
	if snap.Plan != planBefore {
		t.Fatalf("no-op apply clobbered the plan: %q -> %q", planBefore, snap.Plan)
	}
	if st := e.Stats(); st.FusedApplies != 0 {
		t.Fatalf("no-op batch counted as a fused apply: %+v", st)
	}
}
