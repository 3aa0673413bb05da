package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spgemm"
)

// fusedTestSetup builds a weighted mesh, a small mutation batch applied to
// a clone, the effective diff, and a plausible affected-source set (here:
// every vertex, unless narrow asks for a small set) — the raw ingredients
// of an incremental apply, independent of internal/dynamic.
func fusedTestSetup(t *testing.T, narrow bool) (g, g2 *graph.Graph, diffs []EdgeDiff, sources []int32) {
	t.Helper()
	g = graph.Grid2D(7, 7, 1, 3)
	for i := range g.Edges {
		g.Edges[i].W = 1 + float64((i*7)%13)/3
	}
	g.Weighted = true
	g2 = g.Clone()
	muts := []graph.Mutation{
		{Op: graph.OpSetWeight, U: g.Edges[3].U, V: g.Edges[3].V, W: g.Edges[3].W * 1.5},
		{Op: graph.OpRemoveEdge, U: g.Edges[20].U, V: g.Edges[20].V},
		{Op: graph.OpAddEdge, U: 0, V: 12, W: 2.5},
	}
	if _, err := g2.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		w, ok := g2.FindEdge(m.U, m.V)
		diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
	}
	if narrow {
		sources = []int32{0, 3, 11, 12, 25, 40}
	} else {
		for v := 0; v < g.N; v++ {
			sources = append(sources, int32(v))
		}
	}
	return g, g2, diffs, sources
}

// runTwoRegion replays the PR 4 path on a fresh session: warm one-shot run,
// old-side region, host patch, new-side region. Returns the side results.
func runTwoRegion(t *testing.T, g, g2 *graph.Graph, diffs []EdgeDiff, sources []int32, opt DistOptions) (oldR, newR *DistResult) {
	t.Helper()
	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	oldR, err = sess.Run(sources)
	if err != nil {
		t.Fatal(err)
	}
	sess.Patch(g2, nil, diffs)
	newR, err = sess.Run(sources)
	if err != nil {
		t.Fatal(err)
	}
	return oldR, newR
}

// TestFusedApplyMatchesTwoRegion: under a forced plan the fused region's
// old- and new-side partials must be bit-identical to the two separate
// scalar regions, while spending strictly fewer critical-path messages.
func TestFusedApplyMatchesTwoRegion(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, false)
	plans := []spgemm.Plan{
		{P1: 4, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}, // 1D
		{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}, // 2D SUMMA
		{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}, // 2D, adjacency stationary
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarAC}, // Theorem 5.1 3D layout
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleC, YZ: spgemm.VarAB}, // k-split layers
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			opt := DistOptions{Procs: plan.Procs(), Batch: 16, Plan: &plan}
			oldR, newR := runTwoRegion(t, g, g2, diffs, sources, opt)

			sess, err := NewDistSession(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(nil); err != nil {
				t.Fatal(err)
			}
			fused, err := sess.ApplyIncremental(sources, g2, nil, diffs, sources)
			if err != nil {
				t.Fatal(err)
			}
			for v := range fused.OldBC {
				if fused.OldBC[v] != oldR.BC[v] {
					t.Fatalf("old side BC[%d]: fused %v, two-region %v (must be bit-identical)", v, fused.OldBC[v], oldR.BC[v])
				}
				if fused.NewBC[v] != newR.BC[v] {
					t.Fatalf("new side BC[%d]: fused %v, two-region %v (must be bit-identical)", v, fused.NewBC[v], newR.BC[v])
				}
			}
			twoRegionMsgs := oldR.Stats.MaxCost.Msgs + newR.Stats.MaxCost.Msgs
			if fused.Stats.MaxCost.Msgs >= twoRegionMsgs {
				t.Fatalf("fused apply must pay fewer messages: fused %d, two-region %d",
					fused.Stats.MaxCost.Msgs, twoRegionMsgs)
			}
			// After the fused apply the resident operands must encode g2
			// exactly as the patched two-region session does: a full run on
			// each yields bit-identical scores.
			full, err := sess.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := MFBCDistributed(g2, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range full.BC {
				if full.BC[v] != fresh.BC[v] {
					t.Fatalf("post-apply session diverges from fresh session at BC[%d]: %v vs %v", v, full.BC[v], fresh.BC[v])
				}
			}
		})
	}
}

// TestFusedApplyMatchesTwoRegionAutoPlan: under automatic plan search the
// fused region plans every multiplication per side from that side's own
// frontier counts, so its results must be bit-identical to the scalar
// two-region path — exactly as under forced plans.
func TestFusedApplyMatchesTwoRegionAutoPlan(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, false)
	for _, p := range []int{2, 4, 8} {
		opt := DistOptions{Procs: p, Batch: 16}
		oldR, newR := runTwoRegion(t, g, g2, diffs, sources, opt)
		sess, err := NewDistSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		fused, err := sess.ApplyIncremental(sources, g2, nil, diffs, sources)
		if err != nil {
			t.Fatal(err)
		}
		for v := range fused.OldBC {
			if fused.OldBC[v] != oldR.BC[v] {
				t.Fatalf("p=%d old side BC[%d]: fused %v, two-region %v (must be bit-identical)", p, v, fused.OldBC[v], oldR.BC[v])
			}
			if fused.NewBC[v] != newR.BC[v] {
				t.Fatalf("p=%d new side BC[%d]: fused %v, two-region %v (must be bit-identical)", p, v, fused.NewBC[v], newR.BC[v])
			}
		}
	}
}

// TestFusedApplyAutoPlanDivergence drives an edit so asymmetric (a large
// fraction of the edges deleted) that the two sides' automatic plan
// searches disagree on at least one iteration, forcing the fused sweep
// through its dual-product path — and the results must STILL be
// bit-identical to the two scalar regions.
func TestFusedApplyAutoPlanDivergence(t *testing.T) {
	g := graph.Grid2D(9, 9, 1, 5)
	for i := range g.Edges {
		g.Edges[i].W = 1 + float64((i*11)%17)/4
	}
	g.Weighted = true
	g2 := g.Clone()
	var muts []graph.Mutation
	// Delete every third edge: the new side is far sparser than the old, so
	// its frontiers (and adjacency counts) feed the planner very different
	// problem sizes.
	for i := 0; i < len(g.Edges); i += 3 {
		muts = append(muts, graph.Mutation{Op: graph.OpRemoveEdge, U: g.Edges[i].U, V: g.Edges[i].V})
	}
	if _, err := g2.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	var diffs []EdgeDiff
	for _, m := range muts {
		w, ok := g2.FindEdge(m.U, m.V)
		diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
	}
	var sources []int32
	for v := 0; v < g.N; v++ {
		sources = append(sources, int32(v))
	}

	divergedSomewhere := false
	for _, p := range []int{4, 8} {
		opt := DistOptions{Procs: p, Batch: 16}
		oldR, newR := runTwoRegion(t, g, g2, diffs, sources, opt)
		sess, err := NewDistSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		fused, err := sess.ApplyIncremental(sources, g2, nil, diffs, sources)
		if err != nil {
			t.Fatal(err)
		}
		if fused.DualProducts > 0 {
			divergedSomewhere = true
		}
		for v := range fused.OldBC {
			if fused.OldBC[v] != oldR.BC[v] {
				t.Fatalf("p=%d old side BC[%d]: fused %v, two-region %v (must be bit-identical)", p, v, fused.OldBC[v], oldR.BC[v])
			}
			if fused.NewBC[v] != newR.BC[v] {
				t.Fatalf("p=%d new side BC[%d]: fused %v, two-region %v (must be bit-identical)", p, v, fused.NewBC[v], newR.BC[v])
			}
		}
	}
	if !divergedSomewhere {
		t.Fatal("scenario never diverged the per-side plans; the dual-product path went unexercised")
	}
}

// TestFusedApplyLatencyWithinOneShot pins the acceptance bound: on a
// small-diff apply the fused region's latency term (critical-path
// messages) stays within 1.25× of a single one-shot region sweeping the
// same sources under the same plan — versus the ~2× the two-region path
// pays.
func TestFusedApplyLatencyWithinOneShot(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	plan := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}
	opt := DistOptions{Procs: plan.Procs(), Batch: 16, Plan: &plan}

	// The two-region reference: its new-side region is exactly "a single
	// one-shot region of the same plan" over the same source set.
	oldR, newR := runTwoRegion(t, g, g2, diffs, sources, opt)
	oneShot := newR.Stats.MaxCost.Msgs
	twoRegion := oldR.Stats.MaxCost.Msgs + newR.Stats.MaxCost.Msgs

	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncremental(sources, g2, nil, diffs, sources)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Stats.MaxCost.Msgs > oneShot+oneShot/4 {
		t.Fatalf("fused apply S = %d msgs exceeds 1.25× the one-shot region's %d", fused.Stats.MaxCost.Msgs, oneShot)
	}
	if twoRegion < oneShot+oneShot/2 {
		t.Fatalf("two-region reference unexpectedly cheap (%d msgs vs one-shot %d); the comparison is vacuous", twoRegion, oneShot)
	}
	if fused.Stats.MaxCost.Msgs >= twoRegion {
		t.Fatalf("fused %d msgs not below two-region %d", fused.Stats.MaxCost.Msgs, twoRegion)
	}
}

// TestFusedApplyPhases: the fused region must attribute its cost to the
// diff/patch/sweep/reduce phases, summing per processor to the run total,
// with the diff scatter charged as communication and the splice as flops.
func TestFusedApplyPhases(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	opt := DistOptions{Procs: 4, Batch: 16}
	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncremental(sources, g2, nil, diffs, sources)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]machine.PhaseStats{}
	for _, ph := range fused.Stats.Phases {
		got[ph.Name] = ph
	}
	for _, name := range []string{"diff", "patch", "sweep", "reduce"} {
		if _, ok := got[name]; !ok {
			t.Fatalf("phase %q missing from %+v", name, fused.Stats.Phases)
		}
	}
	if got["diff"].MaxCost.Msgs == 0 {
		t.Fatal("diff scatter must charge latency")
	}
	if got["patch"].MaxCost.Flops == 0 {
		t.Fatal("operand splice must charge flops")
	}
	if got["sweep"].MaxCost.Msgs == 0 || got["reduce"].MaxCost.Msgs == 0 {
		t.Fatal("sweep and reduce phases must charge communication")
	}
	for r, total := range fused.Stats.PerProc {
		var sum machine.Cost
		for _, ph := range fused.Stats.Phases {
			sum = sum.Add(ph.PerProc[r])
		}
		if sum != total {
			t.Fatalf("rank %d: phase sum %v != region total %v", r, sum, total)
		}
	}
}

// TestFusedApplyVertexGrowthRejected: a vertex-set change must be refused
// (callers fall back to Reset + two-region).
func TestFusedApplyVertexGrowthRejected(t *testing.T) {
	g, _, _, _ := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	if err := g2.Apply(graph.Mutation{Op: graph.OpAddVertex}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyIncremental(nil, g2, nil, nil, nil); err == nil {
		t.Fatal("vertex growth must be rejected by the fused path")
	}
}

// TestFusedApplyRejectsBadSources: a pivot outside the vertex set is an
// error from either side's list, before any rank runs (and before the
// host-side source union indexes its membership masks).
func TestFusedApplyRejectsBadSources(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int32{-1, int32(g.N)} {
		if _, err := sess.ApplyIncremental([]int32{bad}, g2, nil, diffs, sources); err == nil {
			t.Fatalf("old-side source %d must be rejected", bad)
		}
		if _, err := sess.ApplyIncremental(sources, g2, nil, diffs, []int32{bad}); err == nil {
			t.Fatalf("new-side source %d must be rejected", bad)
		}
		if _, err := sess.Run([]int32{bad}); err == nil {
			t.Fatalf("Run source %d must be rejected", bad)
		}
	}
	if sess.Graph() != g {
		t.Fatal("a rejected apply must leave the session on its old topology")
	}
}

// TestRoundAllocBudget gates per-round reuse on the entry-list path, as
// TestBatchAllocBudget does for the CSR kernel: on a 16×16 weighted mesh at
// p=4, a warm fused apply of a one-edge reweight over six pivots and a warm
// eight-source run may allocate only so much. Both are tens of rounds over
// frontiers of a few entries, so their bytes are per-round overhead; when
// each round rebuilt T and Z, re-bucketed and re-indexed the resident
// blocks and re-formatted the distributions, the same two operations
// allocated 19.5 MB and 15.1 MB, and 7.0 MB and 5.2 MB while every product
// was buffered and sorted before T screened it. The budgets are about 1.2×
// what they allocate now that the screen runs inside the multiply (5.7 MB
// and 4.0 MB, most of it the collectives' copies and the redistributions'
// merges), below what they allocated before it. The collector is held off
// and the minimum of a few tries gated, so the test does not depend on when
// a cycle lands.
func TestRoundAllocBudget(t *testing.T) {
	const maxApplyBytes, maxRunBytes = 13 << 19, 19 << 18 // 6.5 MiB, 4.75 MiB
	g := graph.Grid2D(16, 16, 30, 1)
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	pivots := []int32{45, 46, 47, 61, 62, 63}
	sources := strideSources(g.N, 8, 37)
	// Edge (62,63) carries weight 23 on this seed; the apply toggles it.
	graphs := [2]*graph.Graph{g.Clone(), g}
	if err := graphs[0].Apply(graph.Mutation{Op: graph.OpSetWeight, U: 62, V: 63, W: 25}); err != nil {
		t.Fatal(err)
	}
	apply := func(i int) {
		next := graphs[i%2]
		w, _ := next.FindEdge(62, 63)
		if _, err := sess.ApplyIncremental(pivots, next, nil, []EdgeDiff{{U: 62, V: 63, W: w, Present: true}}, pivots); err != nil {
			t.Fatal(err)
		}
	}
	run := func(int) {
		if _, err := sess.Run(sources); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		op     func(int)
		budget uint64
	}{{"fused apply", apply, maxApplyBytes}, {"session run", run, maxRunBytes}} {
		c.op(0)
		c.op(1)
		bytes := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for try := 2; try < 8; try++ {
			runtime.ReadMemStats(&before)
			c.op(try)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("warm %s allocates %d bytes", c.name, bytes)
		if bytes > c.budget {
			t.Errorf("warm %s allocates %d bytes, budget %d", c.name, bytes, c.budget)
		}
	}
}
