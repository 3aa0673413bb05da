package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

// TestExactSums: the gate that lets ⊖ decide a side's backward products
// where no screen runs passes exactly the weights whose path sums are
// exact: every weight a multiple of one 2^e and the total below 2^(53+e).
func TestExactSums(t *testing.T) {
	thirds := make([]float64, 13)
	for k := range thirds {
		thirds[k] = 1 + float64(k)/3
	}
	rng := rand.New(rand.NewSource(1))
	uniform := make([]float64, 200)
	for k := range uniform {
		uniform[k] = 0.05 + rng.Float64()
	}
	grid := make([]float64, 200)
	for k := range grid {
		grid[k] = math.Round((0.05+rng.Float64())*1024) / 1024
	}
	inf := algebra.Inf
	for _, c := range []struct {
		name  string
		ws    []float64
		exact bool
	}{
		{"integer weights", []float64{1, 9, 3, 3, 7, 2, 30}, true},
		{"2⁻¹⁰-grid weights", grid, true},
		{"1 + k/3", thirds, false},
		{"0.05 + rand", uniform, false},
		{"0.5+0.1+0.3+0.1", []float64{0.5, 0.1, 0.3, 0.1, 1, 1}, false},
		{"an ∞ absent side", []float64{inf, inf, inf}, true},
		{"∞ beside exact weights", []float64{2, inf, 0.25, inf}, true},
		{"∞ beside an inexact weight", []float64{2, inf, 0.1}, false},
		{"no weights", nil, true},
		{"a total at 2^53 (e = 0)", []float64{1, 1<<53 - 1}, false},
		{"a total just below 2^53 (e = 0)", []float64{1, 1<<53 - 2}, true},
		{"a total at 2^(53-10) (e = -10)", []float64{0x1p-10, 0x1p43 - 0x1p-10}, false},
		{"a total just below 2^(53-10)", []float64{0x1p-10, 0x1p43 - 0x1p-9}, true},
		{"a total at 2^(53+4) (e = 4)", []float64{16, 0x1p57 - 16}, false},
		{"a subnormal weight", []float64{0x1p-1074, 1}, false},
	} {
		if got := exactSums(c.ws); got != c.exact {
			t.Errorf("%s: exactSums = %t, want %t", c.name, got, c.exact)
		}
	}
}

// realMesh is an 8×8 mesh whose weights, 0.05 + rand, have no exact sums.
func realMesh(seed int64) *graph.Graph {
	g := graph.Grid2D(8, 8, 9, 3)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Edges {
		g.Edges[i].W = 0.05 + rng.Float64()
	}
	return g
}

// applyStep applies muts to a clone of g on sess as one fused region over
// sources and returns the clone with the region's result.
func applyStep(t *testing.T, sess *DistSession, g *graph.Graph, muts []graph.Mutation, sources []int32) (*graph.Graph, *IncrementalResult) {
	t.Helper()
	g2 := g.Clone()
	if _, err := g2.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	var diffs []EdgeDiff
	for _, m := range muts {
		w, ok := g2.FindEdge(m.U, m.V)
		diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
	}
	res, err := sess.ApplyIncrementalCtx(context.Background(), sources, g2, nil, nil, diffs)
	if err != nil {
		t.Fatal(err)
	}
	return g2, res
}

// matchesBrandes requires got to equal Brandes' partial scores over sources
// on g at 1e-9.
func matchesBrandes(t *testing.T, what string, g *graph.Graph, sources []int32, got []float64) {
	t.Helper()
	for v, b := range baseline.BrandesSources(g, sources) {
		if !almostEqual(got[v], b) {
			t.Fatalf("%s: BC[%d] = %.17g, Brandes %.17g", what, v, got[v], b)
		}
	}
}

// TestRealWeightsFusedApply: the fused apply at p=4 matches Brandes on both
// sides on weights with no exact sums, through the pinned stream's steps —
// a reweight, a cull of every third edge, a restore of half of them.
// Subtracting the edge weight on the way back, the sweep over the entry
// lists was wrong on 53–62 of the 64 vertices at every step.
func TestRealWeightsFusedApply(t *testing.T) {
	g := realMesh(7)
	all := make([]int32, g.N)
	for v := range all {
		all[v] = int32(v)
	}
	rng := rand.New(rand.NewSource(8))
	var cull, restore []graph.Mutation
	for i := 0; i < len(g.Edges); i += 3 {
		e := g.Edges[i]
		cull = append(cull, graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V})
		if i%2 == 0 {
			restore = append(restore, graph.Mutation{Op: graph.OpAddEdge, U: e.U, V: e.V, W: 0.05 + rng.Float64()})
		}
	}
	e5 := g.Edges[5]
	steps := []struct {
		name    string
		muts    []graph.Mutation
		sources []int32
	}{
		{"reweight", []graph.Mutation{{Op: graph.OpSetWeight, U: e5.U, V: e5.V, W: e5.W + 0.7}}, []int32{0, 5, 9, 27, 40, 63}},
		{"cull", cull, all},
		{"restore", restore, all},
	}
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		g2, res := applyStep(t, sess, g, st.muts, st.sources)
		matchesBrandes(t, st.name+" old side", g, st.sources, res.OldBC)
		matchesBrandes(t, st.name+" new side", g2, st.sources, res.NewBC)
		g = g2
	}
}

// TestMixedExactnessPerSide: one set_weight to 0.37 on an integer mesh
// under a forced partial-C plan leaves the old side exact and the new one
// not. The apply sweeps by source whatever the forced plan: its sides are
// SweepSources' on each side bit for bit, the new one matches Brandes, and
// it reports the route's plan. A full run then keeps the forced plan for
// its forward products and plans its backward ones among the plans that
// screen, and reports both plans. Subtracting the edge weight, the new
// side was wrong on 36 vertices.
func TestMixedExactnessPerSide(t *testing.T) {
	g := graph.Grid2D(8, 8, 9, 3)
	forced := spgemm.Plan{P1: 2, P2: 2, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarAC}
	opt := DistOptions{Procs: 8, Batch: 16, Plan: &forced}
	all := make([]int32, g.N)
	for v := range all {
		all[v] = int32(v)
	}
	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges[9]
	g2, res := applyStep(t, sess, g, []graph.Mutation{{Op: graph.OpSetWeight, U: e.U, V: e.V, W: 0.37}}, all)
	matchesSweeps(t, "apply", res, g, g2, all)
	matchesBrandes(t, "new side", g2, all, res.NewBC)
	if got, want := res.Plan.String(), "8x1x1/X=B/YZ=AB"; got != want {
		t.Errorf("the apply reports plan %s, ran %s", got, want)
	}
	full, err := sess.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	matchesBrandes(t, "full run", g2, all, full.BC)
	if full.Plan != forced || full.BackPlan == forced || !full.BackPlan.Screens() {
		t.Errorf("the full run reports forward plan %s and backward plan %s: want %s, and a searched plan that screens", full.Plan, full.BackPlan, forced)
	}
}

// distWeights is FuzzDistMatchesSeq's alphabet: not dyadic, so path sums
// round, and ties that hold in exact arithmetic often do not in float64.
var distWeights = [8]float64{0.5, 0.1, 0.3, 1, 0.7, 1.3, 0.2, 2}

// FuzzDistMatchesSeq holds the entry-list sweep at Procs 2 and 4 to the p=1
// CSR kernel at 1e-9 on small graphs over a non-dyadic alphabet. Both form
// every path sum in the relaxation's order and test a DAG edge with that
// sum, so they agree wherever rounding falls; Brandes is no oracle here,
// since Dijkstra and Bellman-Ford part ways on rounding that absorbs a
// strict improvement (README, "Known limits"). The first seed is that
// graph: 0.5+0.1+0.3+0.1 beside a direct edge of 1, one unit edge further.
func FuzzDistMatchesSeq(f *testing.F) {
	f.Add([]byte{0x14, 0, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 1, 0, 4, 3, 4, 5, 3})
	f.Add([]byte{0x11, 3, 0, 1, 1, 1, 2, 2, 0, 2, 4, 2, 3, 5, 3, 0, 6, 1, 3, 7})
	f.Add([]byte{0x1f, 9, 0, 1, 2, 0, 2, 0, 1, 3, 1, 2, 3, 3, 3, 4, 6, 4, 5, 7, 5, 0, 6, 2, 5, 1})
	f.Add([]byte("a dense little digraph where everything ties with something: 0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, sources, workers := fuzzGraph(data, &distWeights)
		want, err := MFBC(g, sources, Options{Batch: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			got, err := MFBCDistributed(g, DistOptions{Procs: p, Batch: 4, Workers: workers, Sources: sources})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want.BC {
				if !almostEqual(got.BC[v], want.BC[v]) {
					t.Fatalf("Procs %d: BC[%d] = %.17g, the p=1 kernel %.17g (%s)", p, v, got.BC[v], want.BC[v], fmt.Sprint(g.Edges))
				}
			}
		}
	})
}
