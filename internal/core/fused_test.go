package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/baseline"
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
			fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
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
// two-region path — exactly as under forced plans. Every fused apply stages
// its pair working sets on region-local pair operands, so however many
// applies run, each rank's residents hold the plans they held before.
func TestFusedApplyMatchesTwoRegionAutoPlan(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, false)
	undo := make([]EdgeDiff, len(diffs))
	for i, d := range diffs {
		w, ok := g.FindEdge(d.U, d.V)
		undo[i] = EdgeDiff{U: d.U, V: d.V, W: w, Present: ok}
	}
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
		fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
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
		// Toggle the edit back and forth: after each fused apply a rank's
		// residents hold the plans they held before it.
		for k := 0; k < 4; k++ {
			next, ds := g, undo
			if k%2 == 1 {
				next, ds = g2, diffs
			}
			before := residentPlans(sess)
			if _, err := sess.ApplyIncrementalCtx(context.Background(), sources, next, nil, ds); err != nil {
				t.Fatal(err)
			}
			if after := residentPlans(sess); len(before[0]) == 0 || !reflect.DeepEqual(after, before) {
				t.Fatalf("p=%d after %d more fused applies: residents hold plans %v, held %v", p, k+1, after, before)
			}
		}
	}
}

// residentPlans lists, per rank and operand (A, then Aᵀ), the plans the
// session's residents hold a working set for, among every plan of its size.
// Which plans an operand holds is no part of spgemm's API, so it looks the
// plan up in the operand's set map (Stationary.sets) by reflection.
func residentPlans(s *DistSession) [][]spgemm.Plan {
	var out [][]spgemm.Plan
	for _, rk := range s.ranks {
		for _, b := range []*spgemm.Stationary[float64]{rk.a, rk.at} {
			sets := reflect.ValueOf(b).Elem().FieldByName("sets")
			var held []spgemm.Plan
			for _, f := range machine.Factorizations3(s.p) {
				for _, x := range []spgemm.Role{spgemm.RoleA, spgemm.RoleB, spgemm.RoleC} {
					for _, yz := range []spgemm.Variant{spgemm.VarAB, spgemm.VarAC, spgemm.VarBC} {
						plan := spgemm.Plan{P1: f[0], P2: f[1], P3: f[2], X: x, YZ: yz}
						if sets.MapIndex(reflect.ValueOf(plan)).IsValid() {
							held = append(held, plan)
						}
					}
				}
			}
			out = append(out, held)
		}
	}
	return out
}

// TestFusedApplyKeepsResidentPlans: a plan the fused region first uses is
// staged on the region's pair operands and dies with them. A session that
// has run nothing holds no set, and still holds none after a fused apply
// that multiplied; once a run has staged its residents, a fused apply
// leaves them holding exactly those plans.
func TestFusedApplyKeepsResidentPlans(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Iterations == 0 {
		t.Fatal("the fused region multiplied nothing")
	}
	for x, held := range residentPlans(sess) {
		if len(held) != 0 {
			t.Fatalf("resident %d kept the fused region's plans %v", x, held)
		}
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	undo := make([]EdgeDiff, len(diffs))
	for i, d := range diffs {
		w, ok := g.FindEdge(d.U, d.V)
		undo[i] = EdgeDiff{U: d.U, V: d.V, W: w, Present: ok}
	}
	before := residentPlans(sess)
	if _, err := sess.ApplyIncrementalCtx(context.Background(), sources, g, nil, undo); err != nil {
		t.Fatal(err)
	}
	if after := residentPlans(sess); len(before[0]) == 0 || !reflect.DeepEqual(after, before) {
		t.Fatalf("residents hold plans %v after the fused apply, held %v", after, before)
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
		fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
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
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
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
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
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

// TestFusedApplyGrowsVertexSet: a batch that grows the vertex set runs as
// one fused region on a session that has already staged its residents. The
// old side is the pre-batch graph's, reading 0 on the new vertices (they
// are isolated there); the new side and a later full run are the grown
// graph's. Integer weights keep the distributed sweeps exact.
func TestFusedApplyGrowsVertexSet(t *testing.T) {
	g := graph.Grid2D(7, 7, 8, 13)
	g2 := g.Clone()
	muts := []graph.Mutation{
		{Op: graph.OpAddVertex}, {Op: graph.OpAddVertex},
		{Op: graph.OpAddEdge, U: 3, V: int32(g.N), W: 2},
		{Op: graph.OpAddEdge, U: int32(g.N), V: int32(g.N) + 1, W: 1.5},
		{Op: graph.OpSetWeight, U: g.Edges[5].U, V: g.Edges[5].V, W: g.Edges[5].W * 2},
	}
	if _, err := g2.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	var diffs []EdgeDiff
	for _, m := range muts[2:] {
		w, ok := g2.FindEdge(m.U, m.V)
		diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
	}
	sources := make([]int32, g2.N)
	for v := range sources {
		sources[v] = int32(v)
	}
	wantOld, wantNew := baseline.Brandes(g), baseline.Brandes(g2)
	for _, tc := range []struct {
		name string
		opt  DistOptions
	}{
		{"p2", DistOptions{Procs: 2, Batch: 16}},
		{"p4", DistOptions{Procs: 4, Batch: 16}},
		{"p4-2d", DistOptions{Procs: 4, Batch: 16, Constraint: spgemm.Only2D}},
		{"p4-3d", DistOptions{Procs: 4, Batch: 16, Constraint: spgemm.Only3D}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewDistSession(g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(nil); err != nil {
				t.Fatal(err)
			}
			res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, diffs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.OldBC) != g2.N || len(res.NewBC) != g2.N || sess.g != g2 {
				t.Fatalf("grown apply: %d old and %d new scores, want %d on the grown session", len(res.OldBC), len(res.NewBC), g2.N)
			}
			for v := range res.OldBC {
				want := 0.0
				if v < g.N {
					want = wantOld[v]
				}
				if !almostEqual(res.OldBC[v], want) {
					t.Fatalf("old side BC[%d] = %v, want %v", v, res.OldBC[v], want)
				}
				if !almostEqual(res.NewBC[v], wantNew[v]) {
					t.Fatalf("new side BC[%d] = %v, want %v", v, res.NewBC[v], wantNew[v])
				}
			}
			full, err := sess.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantNew {
				if !almostEqual(full.BC[v], wantNew[v]) {
					t.Fatalf("full run on the grown session: BC[%d] = %v, want %v", v, full.BC[v], wantNew[v])
				}
			}
		})
	}
}

// TestFusedApplyRejectsBadSources: a pivot outside the vertex set is an
// error, before any rank runs.
func TestFusedApplyRejectsBadSources(t *testing.T) {
	g, g2, diffs, _ := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int32{-1, int32(g.N)} {
		if _, err := sess.ApplyIncrementalCtx(context.Background(), []int32{bad}, g2, nil, diffs); err == nil {
			t.Fatalf("source %d must be rejected", bad)
		}
		if _, err := sess.Run([]int32{bad}); err == nil {
			t.Fatalf("Run source %d must be rejected", bad)
		}
	}
	if sess.g != g {
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
// allocated 19.5 MB and 15.1 MB, 7.0 MB and 5.2 MB while every product
// was buffered and sorted before T screened it, and 5.2 MB and 3.5 MB while
// every redistribution copied each moved entry into a fresh buffer, out of
// the sender's part and through a k-way merge, and 4.0 MB and 2.5 MB while
// each region regrew the sweep buffers, the send storage and the A
// placement the previous one had grown, and searched again for plans it
// had priced, and 1.39 MB and 0.68 MB while every product was copied out
// of its accumulator and the pair lift, the resident splice and every
// broadcast receive went to fresh storage, and 0.60 MB and 0.48 MB while
// every collective built its payload's closures, boxed its posted slice
// and made its peer views per call, and its receive callback took what it
// captured to the heap, and 0.200 MB and 0.087 MB while the apply rebuilt
// the adjacency through a COO and every rank built each batch's whole seed
// frontier, and 0.105 MB and 0.078 MB while every multiply allocated its
// screen's closure, and 0.094 MB and 0.067 MB while every distribution was
// a formatted key and an owner closure, a matrix header carried both, and
// every forward round allocated T's and the frontier's headers, and
// 0.067 MB and 0.038 MB while every region rebuilt the distributions of
// its shapes and every grid ran a charged split. Now a rank's storage
// outlives its regions, all of that is storage the next multiply or apply
// writes over, a warm collective allocates nothing, the adjacency and each
// rank's seed are cut from sorted rows, a rank's screens are built once
// with its sweep buffers, a distribution is two words over shared tables
// built once per rank, a grid is rank arithmetic and the forward sweep
// keeps its headers: 0.052 MB and 0.029 MB, under the race detector
// 0.057 MB and 0.033 MB (and up to 9 KB more while other packages' race
// tests load the box, as barrier waiters park more). The budgets are about
// 1.2 times the race detector's readings, the run's raised to clear its
// loaded ones. The collector is held off and the minimum of a few tries
// gated, so the test does not depend on when a cycle lands.
func TestRoundAllocBudget(t *testing.T) {
	const maxApplyBytes, maxRunBytes = 67 << 10, 44 << 10 // 67 KiB, 44 KiB
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
		if _, err := sess.ApplyIncrementalCtx(context.Background(), pivots, next, nil, []EdgeDiff{{U: 62, V: 63, W: w, Present: true}}); err != nil {
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
