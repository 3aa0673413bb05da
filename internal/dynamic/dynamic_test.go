package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
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
			compareScores(t, "initial", eng.Scores().BC, fromScratch(t, g))
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
				snap := eng.Scores()
				if snap.Version != graph.Fingerprint(shadow) {
					t.Fatalf("step %d: engine graph diverged from shadow replay", step)
				}
				compareScores(t, tc.name, snap.BC, fromScratch(t, shadow))
			}
			if seq := eng.Scores().Seq; seq != 8 {
				t.Fatalf("Seq = %d after 8 incremental applies", seq)
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
	snap := eng.Scores()
	compareScores(t, "full fallback", snap.BC, fromScratch(t, shadow))
	if snap.Seq != 1 || snap.Seq != rep.Seq {
		t.Fatalf("Seq = %d (report %d) after one full apply", snap.Seq, rep.Seq)
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
	compareScores(t, "local insert", eng.Scores().BC, fromScratch(t, shadow))
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
	before := eng.Scores()
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
	after := eng.Scores()
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
	before := eng.Scores()
	_, err = eng.ApplyCtx(context.Background(), []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 5, W: 1},
		{Op: graph.OpAddEdge, U: 0, V: 99, W: 1}, // out of range
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	after := eng.Scores()
	if after.Version != before.Version || after.Seq != before.Seq {
		t.Fatal("failed batch mutated the snapshot")
	}
	if after.Seq != 0 {
		t.Fatalf("failed batch counted: Seq = %d", after.Seq)
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
				snap := eng.Scores()
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
// canonical order — a reader iterating Scores().Graph.Edges while a
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
	snap := eng.Scores()
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

// TestDistributedIncrementalMatchesFromScratch is the distributed-mode
// differential test: engines running their sweeps on the simulated machine
// (procs 2, 4, 6 and 8) replay seeded mutation sequences; after every applied prefix the maintained scores must match a
// from-scratch sequential recomputation at 1e-9, and distributed applies
// must report modeled communication and the source route's plan. An apply
// runs at most one machine region, fused exactly when it has affected
// sources — vertex growth included.
func TestDistributedIncrementalMatchesFromScratch(t *testing.T) {
	grewFused := 0
	topologies := []struct {
		name     string
		build    func() *graph.Graph
		weighted bool
	}{
		{"rmat", func() *graph.Graph { return graph.RMAT(graph.DefaultRMAT(5, 6, 11)) }, false},
		{"grid-weighted", func() *graph.Graph { return graph.Grid2D(6, 6, 8, 13) }, true},
	}
	engines := []struct {
		name string
		cfg  Config
	}{
		{"p2", Config{Procs: 2, DirtyThreshold: -1, Workers: 1}},
		{"p4", Config{Procs: 4, DirtyThreshold: -1, Workers: 1}},
		{"p6", Config{Procs: 6, DirtyThreshold: -1, Workers: 1}},
		{"p8", Config{Procs: 8, DirtyThreshold: -1, Workers: 1}},
	}
	for _, topo := range topologies {
		for _, eng := range engines {
			t.Run(topo.name+"/"+eng.name, func(t *testing.T) {
				g := topo.build()
				e, err := New(g, eng.cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareScores(t, "initial", e.Scores().BC, fromScratch(t, g))
				if e.Scores().Comm.Runs == 0 || e.Scores().Plan == "" {
					t.Fatalf("initial distributed compute reported no comm/plan: %+v", e.Scores())
				}
				rng := rand.New(rand.NewSource(41))
				shadow := g.Clone()
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
					// something to sweep, and never more than one region.
					if want := rep.Affected > 0; rep.Fused != want || rep.Comm.Runs > 1 {
						t.Fatalf("step %d: fused = %v in %d regions, want fused = %v in at most one (affected %d, n %d→%d)",
							step, rep.Fused, rep.Comm.Runs, want, rep.Affected, oldN, shadow.N)
					}
					if rep.Fused && shadow.N > oldN {
						grewFused++
					}
					// Every incremental apply of a distributed engine says
					// which processor count it ran at.
					if rep.Procs != eng.cfg.Procs {
						t.Fatalf("step %d: report at %d procs, engine at %d", step, rep.Procs, eng.cfg.Procs)
					}
					if rep.Affected > 0 && (rep.Comm.Runs == 0 || rep.Plan == "") {
						t.Fatalf("step %d: distributed apply with %d affected reported no comm/plan: %+v",
							step, rep.Affected, rep)
					}
					// A fused apply sweeps by source under the route's own plan.
					if route := fmt.Sprintf("%dx1x1/X=B/YZ=AB", eng.cfg.Procs); rep.Fused && rep.Plan != route {
						t.Fatalf("step %d: %s apply (fused %t) ran plan %s", step, eng.name, rep.Fused, rep.Plan)
					}
					snap := e.Scores()
					if snap.Version != graph.Fingerprint(shadow) {
						t.Fatalf("step %d: engine graph diverged from shadow replay", step)
					}
					compareScores(t, topo.name+"/"+eng.name, snap.BC, fromScratch(t, shadow))
				}
				snap := e.Scores()
				if snap.Seq != 4 {
					t.Fatalf("Seq = %d after 4 incremental applies", snap.Seq)
				}
				if snap.Comm.Runs == 0 {
					t.Fatalf("no machine runs accumulated: %+v", snap.Comm)
				}
			})
		}
	}
	if grewFused == 0 {
		t.Fatal("no vertex-growth apply ran fused; the growth path went unexercised")
	}
}

// TestDistributedEngineMatchesSharedBits is the net under the source
// route: engines at Procs 2, 4 and 9 and the shared-memory engine replay
// one seeded stream, on unit weights, on weights of the 2⁻¹⁰ grid and on
// real weights, and after every apply every distributed engine's scores
// equal the shared-memory engine's bit for bit. The graph is an 8×8 mesh
// with four leaves on a corner. The stream cuts the mesh's arterial column
// links and restores them, which falls back to full recomputes, grows the
// vertex set once, which does too, and toggles links between the leaves,
// which runs incrementally; on weighted graphs it also adds a link too
// heavy to lie on any shortest path, which runs no region.
func TestDistributedEngineMatchesSharedBits(t *testing.T) {
	classes := []struct {
		name   string
		weight func(*rand.Rand) float64
	}{
		{"unit", func(*rand.Rand) float64 { return 1 }},
		{"grid", func(rng *rand.Rand) float64 { return float64(1024+rng.Intn(3072)) / 1024 }},
		{"real", func(rng *rand.Rand) float64 { return 1 + 3*rng.Float64() }},
	}
	const leaves = 4
	for _, wc := range classes {
		t.Run(wc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			g := graph.Grid2D(8, 8, 1, 1)
			for l := int32(0); l < leaves; l++ {
				g.Edges = append(g.Edges, graph.Edge{U: 0, V: 64 + l})
			}
			g.N += leaves
			for i := range g.Edges {
				g.Edges[i].W = wc.weight(rng)
			}
			g.Weighted = wc.name != "unit"
			// The links between columns 3 and 4 of every row but the first.
			var cut, restore []graph.Mutation
			for _, e := range g.Edges {
				if e.U < 64 && e.U%8 == 3 && e.V == e.U+1 && e.U >= 8 {
					cut = append(cut, graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V})
					restore = append(restore, graph.Mutation{Op: graph.OpAddEdge, U: e.U, V: e.V, W: wc.weight(rng)})
				}
			}
			var engines []*Engine
			for _, procs := range []int{1, 2, 4, 9} {
				e, err := New(g, Config{Procs: procs, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			same := func(step string) {
				t.Helper()
				want := engines[0].Scores().BC
				for _, e := range engines[1:] {
					got := e.Scores().BC
					if len(got) != len(want) {
						t.Fatalf("%s: procs %d holds %d scores, shared memory %d", step, e.cfg.Procs, len(got), len(want))
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("%s: procs %d bc[%d] = %v, shared memory %v (must be bit-identical)", step, e.cfg.Procs, v, got[v], want[v])
						}
					}
				}
			}
			same("initial")
			strategies := map[string]int{}
			for step := 0; step < 9; step++ {
				cur := engines[0].Graph()
				var batch []graph.Mutation
				switch step {
				case 2:
					batch = cut
				case 4:
					batch = []graph.Mutation{{Op: graph.OpAddVertex}, {Op: graph.OpAddEdge, U: 0, V: int32(cur.N), W: wc.weight(rng)}}
				case 5:
					batch = restore
				case 3:
					if g.Weighted {
						batch = []graph.Mutation{{Op: graph.OpAddEdge, U: 9, V: 54, W: 1000}}
						break
					}
					fallthrough
				default:
					u, v := 64+rng.Int31n(leaves), 64+rng.Int31n(leaves-1)
					if v >= u {
						v++
					}
					switch _, ok := cur.FindEdge(u, v); {
					case !ok:
						batch = []graph.Mutation{{Op: graph.OpAddEdge, U: u, V: v, W: wc.weight(rng)}}
					case g.Weighted && rng.Intn(2) == 0:
						batch = []graph.Mutation{{Op: graph.OpSetWeight, U: u, V: v, W: wc.weight(rng)}}
					default:
						batch = []graph.Mutation{{Op: graph.OpRemoveEdge, U: u, V: v}}
					}
				}
				var strategy string
				for _, e := range engines {
					rep, err := e.Apply(batch)
					if err != nil {
						t.Fatalf("step %d procs %d: %v", step, e.cfg.Procs, err)
					}
					if e == engines[0] {
						strategy = rep.Strategy
					} else if rep.Strategy != strategy {
						t.Fatalf("step %d: procs %d applied %s, shared memory %s", step, e.cfg.Procs, rep.Strategy, strategy)
					}
				}
				strategies[strategy]++
				same(fmt.Sprintf("step %d (%s)", step, strategy))
			}
			if strategies[StrategyFull] == 0 || strategies[StrategyIncremental] == 0 {
				t.Fatalf("the stream applied %v: both strategies must run", strategies)
			}
		})
	}
}

// TestDistributedApplyCheaperThanFromScratch is the amortization
// acceptance: for a small-diff batch, the modeled communication of the
// distributed incremental apply (one fused region over the replicated
// adjacency, both sides) must be strictly less than a from-scratch
// distributed run on the same post-batch graph.
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
		aff := affectedSources(st, newState(ng, 1), batchDiff(g, ng, m), 1, new([]float64))
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
	full, err := core.MFBCDistributed(e.Scores().Graph, core.DistOptions{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Words moved (the paper's W) is the bandwidth measure the stationary
	// operands amortize; latency (S) scales with frontier iterations, not
	// batch width, and the fused apply pays it for both sides at once.
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
	eg := e.Scores().Graph
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
	snap := e.Scores()
	if len(snap.Phases) != len(rep.Phases) {
		t.Fatalf("snapshot lost the phase breakdown: %+v", snap.Phases)
	}
}

// TestVertexGrowthRunsFused: an AddVertex batch that wires the new
// vertex in runs as one fused region — the session re-installed with the
// new vertex isolated on the old side — and produces from-scratch scores.
func TestVertexGrowthRunsFused(t *testing.T) {
	g := graph.Grid2D(5, 5, 1, 9)
	e, err := New(g, Config{Procs: 4, DirtyThreshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shadow := e.Scores().Graph.Clone()
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
	if !rep.Fused || rep.Comm.Runs != 1 {
		t.Fatalf("vertex growth must run as one fused region: %+v", rep)
	}
	compareScores(t, "growth apply", e.Scores().BC, fromScratch(t, shadow))
	if rep.Strategy != StrategyIncremental || rep.Procs != 4 {
		t.Fatalf("growth apply is not an incremental apply at 4 procs: %+v", rep)
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
	planBefore := e.Scores().Plan
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
	snap := e.Scores()
	if snap.Plan != planBefore {
		t.Fatalf("no-op apply clobbered the plan: %q -> %q", planBefore, snap.Plan)
	}
	if snap.Seq != 1 || rep.Strategy != StrategyIncremental || rep.Procs != 4 {
		t.Fatalf("no-op batch is not one regionless incremental apply: Seq %d, %+v", snap.Seq, rep)
	}
}

// TestApplyAllocBudget gates the bytes of one warm apply of the p=4
// engine, BenchmarkFusedLocalApply's shape: a 16×16 weighted mesh whose
// edge (62,63) toggles between two weights, each apply a single-edge
// reweight with six affected pivots. An apply builds the snapshot's
// adjacency, probes for the affected sources and runs one region.
//
// A fused apply re-runs the pivots on both sides. It allocated 242 KB
// while the adjacency went through a COO, append, sort and merge, every
// rank built the whole batch's seed frontier and kept its quarter, and the
// probes kept a map of fresh n-vectors beside an exported T, and 114 KB
// while every multiply allocated its screen's closure, and 103 KB while
// every distribution was a formatted key and an owner closure and every
// forward round allocated T's and the frontier's headers, and 77 KB while
// every region rebuilt the distributions of its shapes and every grid ran
// a charged split, and 65 KB while the region swept both sides over the
// entry lists, round by round. Now the adjacency is cut from sorted rows,
// the probes write into the engine's slab, and the region sweeps by source
// with the CSR kernel, its workspace and dependency rows on each rank's
// store, in a fixed number of supersteps: 38 KB (39 KB under the race
// detector).
//
// A full apply — the same batch under a dirtiness threshold every batch
// exceeds — recomputes every vertex on the new side alone. It allocated
// 80 KB while it ran the entry-list sweep over resident operands that the
// host patched first; as the source route it reads 34 KB (35 KB under the
// race detector).
//
// Each budget is about 1.2 times the race detector's reading. The
// collector is held off and the minimum of a few tries gated, so the test
// does not depend on when a cycle lands.
func TestApplyAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		threshold float64
		strategy  string
		budget    uint64
	}{
		{"fused", 0, StrategyIncremental, 46 << 10}, // 46 KiB
		{"full", 1e-9, StrategyFull, 42 << 10},      // 42 KiB
	} {
		e, err := New(graph.Grid2D(16, 16, 30, 1), Config{Procs: 4, Workers: 1, DirtyThreshold: c.threshold})
		if err != nil {
			t.Fatal(err)
		}
		// Edge (62,63) carries weight 23 on this seed.
		toggle := []graph.Mutation{
			{Op: graph.OpSetWeight, U: 62, V: 63, W: 25},
			{Op: graph.OpSetWeight, U: 62, V: 63, W: 23},
		}
		apply := func(i int) {
			rep, err := e.Apply(toggle[i%2 : i%2+1])
			if err != nil || rep.Strategy != c.strategy || rep.Affected != 6 || rep.Comm.Runs != 1 {
				t.Fatalf("%s apply %d: strategy %s, affected %d, %d regions, err %v", c.name, i, rep.Strategy, rep.Affected, rep.Comm.Runs, err)
			}
		}
		apply(0)
		apply(1)
		bytes := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		for try := 2; try < 8; try++ {
			runtime.ReadMemStats(&before)
			apply(try)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		debug.SetGCPercent(gc)
		t.Logf("a warm %s apply allocates %d bytes", c.name, bytes)
		if bytes > c.budget {
			t.Errorf("a warm %s apply allocates %d bytes, budget %d", c.name, bytes, c.budget)
		}
	}
}

// cancelInRegion is the engine's machine with a hook: once armed, the next
// region's rank 1 cancels the caller's ctx as the region starts and holds
// its peers at their first superstep a little while.
type cancelInRegion struct {
	machine.Transport
	cancel context.CancelFunc
	runs   int
}

func (c *cancelInRegion) Run(fn func(*machine.Proc)) (machine.RunStats, error) {
	c.runs++
	cancel := c.cancel
	c.cancel = nil
	return c.Transport.Run(func(p *machine.Proc) {
		if cancel != nil && p.Rank() == 1 {
			cancel()
			time.Sleep(20 * time.Millisecond)
		}
		fn(p)
	})
}

// countdown is a ctx that ends — its Err turns context.Canceled — at its
// (left+1)-th check: a cancellation that lands in the middle of a sweep,
// deterministically and with no timer. It has no Done channel, so only the
// checks between source rows can see it end.
type countdown struct {
	context.Context
	left atomic.Int64
}

func (c *countdown) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledApplyKeepsVersion: at Procs 4, an apply whose ctx is
// cancelled before its region, or inside it, runs one region, which its
// ctx's cause ends at the next superstep; at Procs 1, an apply whose ctx
// was cancelled before the call sweeps nothing. An apply whose ctx ends
// mid-sweep — after a few source rows, at Procs 1 or in a fused region's
// kernel at Procs 4 — stops at the next row. Either way ApplyCtx returns an
// error wrapping context.Canceled, the engine keeps its previous version
// and scores, no goroutine is left behind, and the next apply of the same
// batch matches a from-scratch compute — on the incremental (fused at
// Procs 4) and the full-recompute strategies alike.
func TestCancelledApplyKeepsVersion(t *testing.T) {
	type cancelCase struct {
		name     string
		procs    int
		dirty    float64
		inRegion bool
		rows     int64 // > 0: the ctx ends after this many checks
	}
	var cases []cancelCase
	for _, strat := range []struct {
		name  string
		dirty float64
	}{{"fused", -1}, {"full", 1e-9}} {
		for _, inRegion := range []bool{false, true} {
			cases = append(cases, cancelCase{fmt.Sprintf("%s/in-region=%v", strat.name, inRegion), 4, strat.dirty, inRegion, 0})
		}
	}
	cases = append(cases, cancelCase{"shared/incremental", 1, -1, false, 0}, cancelCase{"shared/full", 1, 1e-9, false, 0},
		cancelCase{"shared/incremental/mid-sweep", 1, -1, false, 4}, cancelCase{"shared/full/mid-sweep", 1, 1e-9, false, 4},
		cancelCase{"fused/mid-sweep", 4, -1, false, 3})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := graph.Grid2D(8, 8, 1, 1)
			cfg := Config{Procs: c.procs, Workers: 1, DirtyThreshold: c.dirty}
			var mach *cancelInRegion
			if c.procs > 1 {
				mach = &cancelInRegion{Transport: sim.New(c.procs)}
				cfg.Transport = mach
			}
			e, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := e.Scores()
			baseline := runtime.NumGoroutine()
			batch := []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 63, W: 1}}

			var ctx context.Context
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wantRuns := 0
			switch {
			case c.rows > 0:
				mid := &countdown{Context: context.Background()}
				mid.left.Store(c.rows)
				ctx = mid
				if mach != nil {
					wantRuns = mach.runs + 1
				}
			case c.inRegion:
				mach.cancel = cancel
				wantRuns = mach.runs + 1
			case mach != nil:
				cancel()
				wantRuns = mach.runs + 1
			default:
				cancel()
			}
			_, err = e.ApplyCtx(ctx, batch)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled apply returned %v, want context.Canceled", err)
			}
			if mach != nil && mach.runs != wantRuns {
				t.Fatalf("the machine ran %d regions by the cancelled apply's end, want %d", mach.runs, wantRuns)
			}
			after := e.Scores()
			if after.Version != before.Version || after.Seq != before.Seq {
				t.Fatalf("cancelled apply moved the engine: version %x seq %d, was %x seq %d", after.Version, after.Seq, before.Version, before.Seq)
			}
			compareScores(t, "after the cancelled apply", after.BC, before.BC)
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i == 100 {
					t.Fatalf("%d goroutines, %d before the cancelled apply", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}

			rep, err := e.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fused != (c.procs > 1 && c.dirty < 0) {
				t.Fatalf("retried apply ran strategy %s, fused = %v", rep.Strategy, rep.Fused)
			}
			shadow := g.Clone()
			if err := shadow.Apply(batch[0]); err != nil {
				t.Fatal(err)
			}
			compareScores(t, "retried apply", e.Scores().BC, fromScratch(t, shadow))
		})
	}
}
