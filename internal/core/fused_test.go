package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/tcpnet"
	"repro/internal/sparse"
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

// runTwoRegion is the path of two regions of Run: a warm run of sources on
// a session at g and one on a session at g2, each after a full run has
// staged its working sets. Returns the side results.
func runTwoRegion(t *testing.T, g, g2 *graph.Graph, sources []int32, opt DistOptions) (oldR, newR *DistResult) {
	t.Helper()
	side := func(g *graph.Graph) *DistResult {
		sess, err := NewDistSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		r, err := sess.Run(sources)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return side(g), side(g2)
}

// sweepSide is SweepSources over g's adjacency, padded to n vertices, for
// sources: one side of an incremental apply as the shared-memory kernel
// computes it.
func sweepSide(t *testing.T, g *graph.Graph, n int, sources []int32) []float64 {
	t.Helper()
	if n > g.N {
		g = g.Clone()
		g.N = n
	}
	a := g.Adjacency()
	at := a
	if g.Directed {
		at = sparse.Transpose(a)
	}
	r, err := SweepSources(context.Background(), a, at, sources, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.BC
}

// matchesSweeps requires an apply's sides to be, bit for bit, what
// SweepSources gives over the pre-batch graph g and the post-batch g2.
func matchesSweeps(t *testing.T, what string, res *IncrementalResult, g, g2 *graph.Graph, sources []int32) {
	t.Helper()
	for side, want := range [][]float64{sweepSide(t, g, g2.N, sources), sweepSide(t, g2, g2.N, sources)} {
		got := [][]float64{res.OldBC, res.NewBC}[side]
		if len(got) != len(want) {
			t.Fatalf("%s: side %d holds %d scores, want %d", what, side, len(got), len(want))
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: side %d BC[%d] = %v, SweepSources %v (must be bit-identical)", what, side, v, got[v], want[v])
			}
		}
	}
}

// TestFusedApplyMatchesTwoRegion: under a forced plan, which governs Run's
// multiplies and not the apply's, the apply's old- and new-side partials
// are bit for bit SweepSources' on each side, while it spends strictly
// fewer critical-path messages than two regions of Run, one per side, and
// it leaves the session at g2: a full run equals a fresh session's.
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
			oldR, newR := runTwoRegion(t, g, g2, sources, opt)

			sess, err := NewDistSession(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(nil); err != nil {
				t.Fatal(err)
			}
			fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
			if err != nil {
				t.Fatal(err)
			}
			matchesSweeps(t, plan.String(), fused, g, g2, sources)
			if want := sourcePlan(plan.Procs()); fused.Plan != want {
				t.Fatalf("the apply reports plan %s, ran %s", fused.Plan, want)
			}
			twoRegionMsgs := oldR.Stats.MaxCost.Msgs + newR.Stats.MaxCost.Msgs
			if fused.Stats.MaxCost.Msgs >= twoRegionMsgs {
				t.Fatalf("fused apply must pay fewer messages: fused %d, two-region %d",
					fused.Stats.MaxCost.Msgs, twoRegionMsgs)
			}
			// After the fused apply the session's topology is g2: a full run,
			// on shards cut from it, equals a fresh session's bit for bit.
			full, err := sess.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := MFBCDistributed(g2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(full.BC, fresh.BC) {
				t.Fatalf("post-apply session diverges from a fresh session:\n got %v\nwant %v", full.BC, fresh.BC)
			}
		})
	}
}

// TestFusedApplyMatchesTwoRegionAutoPlan: under automatic plan search, at
// p = 2, 4 and 8, the apply's sides are SweepSources' bit for bit, through
// the first apply and the edit toggled back and forth.
func TestFusedApplyMatchesTwoRegionAutoPlan(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, false)
	undo := make([]EdgeDiff, len(diffs))
	for i, d := range diffs {
		w, ok := g.FindEdge(d.U, d.V)
		undo[i] = EdgeDiff{U: d.U, V: d.V, W: w, Present: ok}
	}
	for _, p := range []int{2, 4, 8} {
		opt := DistOptions{Procs: p, Batch: 16}
		sess, err := NewDistSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
		if err != nil {
			t.Fatal(err)
		}
		matchesSweeps(t, fmt.Sprintf("p=%d", p), fused, g, g2, sources)
		for k := 0; k < 4; k++ {
			from, next, ds := g2, g, undo
			if k%2 == 1 {
				from, next, ds = g, g2, diffs
			}
			res, err := sess.ApplyIncrementalCtx(context.Background(), sources, next, nil, nil, ds)
			if err != nil {
				t.Fatal(err)
			}
			matchesSweeps(t, fmt.Sprintf("p=%d toggle %d", p, k), res, from, next, sources)
		}
	}
}

// TestFusedApplyKeepsResidentPlans: the apply stages no working set; the
// session's CSRs stand for the route's replica, whose staging the first
// apply of a session charges in its patch phase, and no later apply
// charges again: a warm apply's patch phase moves nothing. The sides are
// SweepSources' all along.
func TestFusedApplyKeepsResidentPlans(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
	if err != nil {
		t.Fatal(err)
	}
	matchesSweeps(t, "first apply", fused, g, g2, sources)
	if m := patchMsgs(fused.Stats); m == 0 {
		t.Fatal("the first apply's patch phase moved nothing: the replica's staging went uncharged")
	}
	undo := make([]EdgeDiff, len(diffs))
	for i, d := range diffs {
		w, ok := g.FindEdge(d.U, d.V)
		undo[i] = EdgeDiff{U: d.U, V: d.V, W: w, Present: ok}
	}
	res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g, nil, nil, undo)
	if err != nil {
		t.Fatal(err)
	}
	matchesSweeps(t, "apply back", res, g2, g, sources)
	if m := patchMsgs(res.Stats); m != 0 {
		t.Fatalf("a warm apply's patch phase sent %d messages: the replica was staged twice", m)
	}
}

// TestRegionlessApplyChargesNextRegion: an apply with no sources runs no
// region, yet moves the session, and the next region charges its splice of
// the replica beside its own, so an edit is never free compute; a
// regionless apply that grows the vertex set leaves the replica to be
// staged again by the next region. A recompute is the new side alone, bit
// for bit SweepSources over every vertex.
func TestRegionlessApplyChargesNextRegion(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	all := strideSources(g.N, g.N, 1)
	first, err := sess.RecomputeCtx(context.Background(), g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.OldBC != nil || !sameBits(first.NewBC, sweepSide(t, g, g.N, all)) {
		t.Fatal("a recompute is not the new side alone, SweepSources' over every vertex")
	}
	if patchMsgs(first.Stats) == 0 {
		t.Fatal("the session's first region did not charge the replica's staging")
	}
	res, err := sess.ApplyIncrementalCtx(context.Background(), nil, g2, nil, nil, diffs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Wall != 0 || sess.g != g2 {
		t.Fatalf("an apply with no sources ran a region (%v) or left the session behind", res.Stats.Wall)
	}
	splice := int64(g2.AdjacencyNNZ())
	g3 := g2.Clone()
	e := g3.Edges[4]
	if err := g3.SetWeight(e.U, e.V, e.W+1); err != nil {
		t.Fatal(err)
	}
	res, err = sess.ApplyIncrementalCtx(context.Background(), sources, g3, nil, nil, []EdgeDiff{{U: e.U, V: e.V, W: e.W + 1, Present: true}})
	if err != nil {
		t.Fatal(err)
	}
	matchesSweeps(t, "after a regionless apply", res, g2, g3, sources)
	if got := patchFlops(res.Stats); got != 2*splice {
		t.Fatalf("the next region charged %d patch flops, want its own splice and the pending one, %d", got, 2*splice)
	}
	grown := g3.Clone()
	if err := grown.Apply(graph.Mutation{Op: graph.OpAddVertex}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyIncrementalCtx(context.Background(), nil, grown, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	full, err := sess.RecomputeCtx(context.Background(), grown, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if patchMsgs(full.Stats) == 0 {
		t.Fatal("the region after a vertex-set change did not stage the replica again")
	}
	if !sameBits(full.NewBC, sweepSide(t, grown, grown.N, strideSources(grown.N, grown.N, 1))) {
		t.Fatal("the grown session's recompute diverges from SweepSources")
	}
}

// patchFlops is the critical-path flops of a region's patch phase.
func patchFlops(st machine.RunStats) int64 {
	for _, ph := range st.Phases {
		if ph.Name == machine.PhasePatch {
			return ph.MaxCost.Flops
		}
	}
	return 0
}

// patchMsgs is the critical-path messages of a region's patch phase.
func patchMsgs(st machine.RunStats) int64 {
	for _, ph := range st.Phases {
		if ph.Name == machine.PhasePatch {
			return ph.MaxCost.Msgs
		}
	}
	return 0
}

// TestFusedApplyAutoPlanDivergence: an edit so asymmetric — every third
// edge deleted — that Run's automatic plans differ between the two
// topologies on some products; the apply runs one route on both sides
// whatever Run would choose, and its sides are SweepSources' bit for bit.
func TestFusedApplyAutoPlanDivergence(t *testing.T) {
	g := graph.Grid2D(9, 9, 1, 5)
	for i := range g.Edges {
		g.Edges[i].W = 1 + float64((i*11)%17)/4
	}
	g.Weighted = true
	g2 := g.Clone()
	var muts []graph.Mutation
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
	for _, p := range []int{4, 8} {
		sess, err := NewDistSession(g, DistOptions{Procs: p, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
		if err != nil {
			t.Fatal(err)
		}
		matchesSweeps(t, fmt.Sprintf("p=%d", p), fused, g, g2, sources)
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
	oldR, newR := runTwoRegion(t, g, g2, sources, opt)
	oneShot := newR.Stats.MaxCost.Msgs
	twoRegion := oldR.Stats.MaxCost.Msgs + newR.Stats.MaxCost.Msgs

	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
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

// TestFusedApplyPhases: a warm fused region, after the recompute that
// staged the replica, must attribute its cost to the diff/patch/sweep/reduce
// phases, summing per processor to the run total, with the diff scatter
// and the close charged as communication, and the splice and the sweep as
// flops: a sweep by source moves nothing.
func TestFusedApplyPhases(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, true)
	opt := DistOptions{Procs: 4, Batch: 16}
	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RecomputeCtx(context.Background(), g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
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
	if sw := got["sweep"].MaxCost; sw.Flops == 0 || sw.Msgs != 0 || sw.Bytes != 0 {
		t.Fatalf("the sweep must charge flops and no communication, charged %v", sw)
	}
	if got["reduce"].MaxCost.Msgs == 0 {
		t.Fatal("the reduce phase must charge communication")
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
// one fused region on a session whose first recompute has staged the
// replica. The old side is the pre-batch graph's, reading 0 on the new
// vertices (they are isolated there); the new side and a later full run
// (under the row's plan ablation, which governs Run alone) are the grown
// graph's; the apply charges the replica's staging again, since the
// vertex set moved. Integer weights keep the distributed sweeps exact.
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
			if _, err := sess.RecomputeCtx(context.Background(), g, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.OldBC) != g2.N || len(res.NewBC) != g2.N || sess.g != g2 {
				t.Fatalf("grown apply: %d old and %d new scores, want %d on the grown session", len(res.OldBC), len(res.NewBC), g2.N)
			}
			// The vertex set moved; the apply paid for the replica's staging
			// again.
			if patchMsgs(res.Stats) == 0 {
				t.Fatal("grown apply: the replica's staging went uncharged after the rebuild")
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
		if _, err := sess.ApplyIncrementalCtx(context.Background(), []int32{bad}, g2, nil, nil, diffs); err == nil {
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
// its shapes and every grid ran a charged split, and the apply 0.052 MB
// while it swept both sides over the entry lists, round by round. Now a
// rank's storage outlives its regions, all of that is storage the next
// multiply or apply writes over, a warm collective allocates nothing, the
// adjacency and each rank's seed are cut from sorted rows, a rank's screens
// are built once with its sweep buffers, a distribution is two words over
// shared tables built once per rank, a grid is rank arithmetic, the forward
// sweep keeps its headers, and the apply sweeps by source with the CSR
// kernel, its workspace and dependency rows on the rank's store, in a
// fixed number of supersteps: 0.026 MB and 0.029 MB (14 KB of the apply's
// is newG's adjacency, built when the caller passes none), under the race
// detector 0.027 MB and 0.034 MB (the run's up to 9 KB more while other
// packages' race tests load the box, as barrier waiters park more). The
// budgets are about 1.2 times the race detector's readings, the run's
// raised to clear its loaded ones. The collector is held off and the
// minimum of a few tries gated, so the test does not depend on when a
// cycle lands.
func TestRoundAllocBudget(t *testing.T) {
	const maxApplyBytes, maxRunBytes = 32 << 10, 44 << 10 // 32 KiB, 44 KiB
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
		if _, err := sess.ApplyIncrementalCtx(context.Background(), pivots, next, nil, nil, []EdgeDiff{{U: 62, V: 63, W: w, Present: true}}); err != nil {
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

// randomBatch draws a mutation batch on g, each edge touched at most once:
// deletions and reweights of present edges, inserts of absent ones, and
// with grow an added vertex joined to the graph. It returns the edited
// clone with the batch's effective diff.
func randomBatch(t *testing.T, rng *rand.Rand, g *graph.Graph, grow bool) (*graph.Graph, []EdgeDiff) {
	t.Helper()
	weight := func() float64 { return float64(1 + rng.Intn(6)) }
	var muts []graph.Mutation
	n := int32(g.N)
	if grow {
		muts = append(muts, graph.Mutation{Op: graph.OpAddVertex},
			graph.Mutation{Op: graph.OpAddEdge, U: n, V: int32(rng.Intn(g.N)), W: weight()})
	}
	touched := map[[2]int32]bool{}
	key := func(u, v int32) [2]int32 {
		if !g.Directed && u > v {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
		if u == v || touched[key(u, v)] {
			continue
		}
		touched[key(u, v)] = true
		switch _, ok := g.FindEdge(u, v); {
		case !ok:
			muts = append(muts, graph.Mutation{Op: graph.OpAddEdge, U: u, V: v, W: weight()})
		case rng.Intn(2) == 0:
			muts = append(muts, graph.Mutation{Op: graph.OpRemoveEdge, U: u, V: v})
		default:
			muts = append(muts, graph.Mutation{Op: graph.OpSetWeight, U: u, V: v, W: weight()})
		}
	}
	// A present edge or two, so deletions and reweights always occur.
	for _, e := range []graph.Edge{g.Edges[rng.Intn(len(g.Edges))], g.Edges[rng.Intn(len(g.Edges))]} {
		if !touched[key(e.U, e.V)] {
			touched[key(e.U, e.V)] = true
			muts = append(muts, graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V})
		}
	}
	g2 := g.Clone()
	if _, err := g2.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	var diffs []EdgeDiff
	for _, m := range muts {
		if m.Op != graph.OpAddVertex {
			w, ok := g2.FindEdge(m.U, m.V)
			diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
		}
	}
	return g2, diffs
}

// randomSources draws a sorted, duplicate-free source set of n vertices:
// now and then one or two — fewer than most rank counts — now and then
// none, else up to half of them.
func randomSources(rng *rand.Rand, n int) []int32 {
	count := 1 + rng.Intn(n/2)
	switch rng.Intn(5) {
	case 0:
		count = 1 + rng.Intn(2)
	case 1:
		count = 0
	}
	out := []int32{}
	for _, v := range rng.Perm(n)[:count] {
		out = append(out, int32(v))
	}
	slices.Sort(out)
	return out
}

// TestFusedApplyMatchesSweepSources is the route's differential net: on
// the simulated machine at p = 2, 3, 4 and 9, and on a 4-rank tcp mesh,
// streams of random batches — deletions, insertions, reweights, vertex
// growth — over an undirected weighted mesh and a directed uniform graph,
// each apply over a random source set (none, fewer than the ranks, or up
// to half the vertices), give old and new sides bit for bit equal to
// SweepSources over each side's adjacency. After the stream, a full run of
// the session equals a fresh session's on the final graph.
func TestFusedApplyMatchesSweepSources(t *testing.T) {
	mesh := graph.Grid2D(7, 7, 9, 5)
	digraph := graph.Uniform(40, 150, true, 3)
	wr := rand.New(rand.NewSource(11))
	for i := range digraph.Edges {
		digraph.Edges[i].W = float64(1 + wr.Intn(7))
	}
	digraph.Weighted = true
	type backend struct {
		name  string
		procs int
		mesh  bool // a 4-rank tcp mesh
	}
	backends := []backend{{"sim/p2", 2, false}, {"sim/p3", 3, false}, {"sim/p4", 4, false}, {"sim/p9", 9, false}, {"tcp/p4", 4, true}}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			opt := DistOptions{Procs: be.procs, Batch: 8}
			if be.mesh {
				lm, err := tcpnet.StartLocalMesh(be.procs, tcpnet.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer lm.Close()
				opt.Transport = lm
			}
			for gi, g := range []*graph.Graph{mesh, digraph} {
				rng := rand.New(rand.NewSource(int64(7*be.procs + gi)))
				sess, err := NewDistSession(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if gi == 0 {
					if _, err := sess.Run(nil); err != nil {
						t.Fatal(err)
					}
				}
				for step := 0; step < 6; step++ {
					g2, diffs := randomBatch(t, rng, g, step == 2)
					sources := randomSources(rng, g2.N)
					res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
					if err != nil {
						t.Fatal(err)
					}
					matchesSweeps(t, fmt.Sprintf("%s step %d (%d sources)", g.Name, step, len(sources)), res, g, g2, sources)
					g = g2
				}
				full, err := sess.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := MFBCDistributed(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(full.BC, fresh.BC) {
					t.Fatalf("%s: the streamed session's full run diverges from a fresh session's\n got %v\nwant %v", g.Name, full.BC, fresh.BC)
				}
			}
		})
	}
}

// TestFusedApplyMsgsFlatInRounds: the route's mechanism. A warm apply runs
// a fixed number of supersteps — the diff scatter, the all-to-all and the
// allreduce of its close — so its critical-path messages do not grow with
// the rounds its sweeps take: on the 16×16 mesh at p = 4, an apply from a
// corner pivot and one from a central pivot, whose sweeps take different
// round counts, report the same Msgs.
func TestFusedApplyMsgsFlatInRounds(t *testing.T) {
	g := graph.Grid2D(16, 16, 30, 1)
	sess, err := NewDistSession(g, DistOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Edge (62,63) carries weight 23 on this seed; the applies toggle it.
	graphs := [2]*graph.Graph{g.Clone(), g}
	if err := graphs[0].Apply(graph.Mutation{Op: graph.OpSetWeight, U: 62, V: 63, W: 25}); err != nil {
		t.Fatal(err)
	}
	apply := func(i int, sources []int32) *IncrementalResult {
		next := graphs[i%2]
		w, _ := next.FindEdge(62, 63)
		res, err := sess.ApplyIncrementalCtx(context.Background(), sources, next, nil, nil, []EdgeDiff{{U: 62, V: 63, W: w, Present: true}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	apply(0, []int32{100}) // charges the replica's staging
	rounds := func(sources []int32) int {
		a := graphs[0].Adjacency()
		r, err := SweepSources(context.Background(), a, a, sources, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Iterations
	}
	corner, center := []int32{0}, []int32{135}
	if rc, rm := rounds(corner), rounds(center); rc == rm {
		t.Fatalf("the pivots' sweeps take %d and %d rounds: the case tests nothing", rc, rm)
	}
	a, b := apply(1, corner), apply(2, center)
	if a.Stats.MaxCost.Msgs != b.Stats.MaxCost.Msgs {
		t.Fatalf("a corner pivot's apply pays %d messages, a central one's %d: the region's supersteps follow its rounds", a.Stats.MaxCost.Msgs, b.Stats.MaxCost.Msgs)
	}
}

// TestFusedApplyBoundsRoundStorage: an apply of more than p·Batch sources
// sweeps them in rounds, so a rank's dependency rows stay within one
// round's 2·Batch·n however many sources there are, and its sides are
// SweepSources' bit for bit.
func TestFusedApplyBoundsRoundStorage(t *testing.T) {
	g, g2, diffs, sources := fusedTestSetup(t, false)
	const p, batch = 3, 4
	sess, err := NewDistSession(g, DistOptions{Procs: p, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) <= 3*p*batch {
		t.Fatalf("%d sources take fewer than four rounds: the case tests nothing", len(sources))
	}
	res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
	if err != nil {
		t.Fatal(err)
	}
	matchesSweeps(t, "rounds", res, g, g2, sources)
	caps := make([]int, p)
	if _, err := sess.region(context.Background(), func(proc *machine.Proc, _ *distRank) {
		caps[proc.Rank()] = cap(machine.Scratch[sourceBufs](proc).delta)
	}); err != nil {
		t.Fatal(err)
	}
	for rank, c := range caps {
		if c == 0 || c > 2*batch*g2.N {
			t.Fatalf("rank %d holds %d dependency cells, want at most one round's %d", rank, c, 2*batch*g2.N)
		}
	}
}
