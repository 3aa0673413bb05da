package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spgemm"
)

// costPin is the modeled outcome of one machine region: everything the
// α–β–γ model and the sweep's control flow produce, nothing measured.
type costPin struct {
	Plan       string
	Cost       machine.Cost // critical path (RunStats.MaxCost)
	Iterations int
	Batches    int
	Dual       int // fused regions: products split per side by plan divergence
}

// TestModeledCostGolden pins the modeled cost of the distributed sweep to
// literals captured at the commit before the scalar and pair sweeps were
// unified (PR 17's parent). Host-side refactors and optimizations must not
// move them; a change that means to (a new plan search, a different
// collective) updates the literals and says why.
func TestModeledCostGolden(t *testing.T) {
	check := func(name string, got, want costPin) {
		t.Helper()
		if got != want {
			t.Errorf("%s: modeled cost moved\n got  %#v\n want %#v", name, got, want)
		}
	}

	rmat := graph.RMAT(graph.DefaultRMAT(8, 8, 1))
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32((i * 7) % rmat.N)
	}
	auto, err := MFBCDistributed(rmat, DistOptions{Procs: 4, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	check("rmat-s8 auto", costPin{auto.Plan.String(), auto.Stats.MaxCost, auto.Iterations, auto.Batches, 0},
		costPin{"4x1x1/X=A/YZ=AB", machine.Cost{Bytes: 1373304, Msgs: 190, Flops: 111258}, 10, 1, 0})

	plan := spgemm.Plan{P1: 2, P2: 2, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAC}
	forced, err := MFBCDistributed(rmat, DistOptions{Procs: 4, Sources: sources, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	check("rmat-s8 forced 3-D", costPin{forced.Plan.String(), forced.Stats.MaxCost, forced.Iterations, forced.Batches, 0},
		costPin{"2x2x1/X=B/YZ=AC", machine.Cost{Bytes: 1429560, Msgs: 136, Flops: 129610}, 10, 1, 0})

	// A three-step stream on one session: a local reweight with a narrow
	// pivot set, a mass deletion that makes the two sides' automatic plans
	// diverge, and a re-insertion.
	mesh := graph.Grid2D(8, 8, 9, 3)
	all := make([]int32, mesh.N)
	for v := range all {
		all[v] = int32(v)
	}
	var cull, restore []graph.Mutation
	for i := 0; i < len(mesh.Edges); i += 3 {
		e := mesh.Edges[i]
		cull = append(cull, graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V})
		if i%2 == 0 {
			restore = append(restore, graph.Mutation{Op: graph.OpAddEdge, U: e.U, V: e.V, W: e.W + 1})
		}
	}
	steps := []struct {
		name    string
		muts    []graph.Mutation
		sources []int32
		want    costPin
	}{
		{"mesh reweight", []graph.Mutation{{Op: graph.OpSetWeight, U: mesh.Edges[5].U, V: mesh.Edges[5].V, W: mesh.Edges[5].W + 2}}, []int32{0, 5, 9, 27, 40, 63},
			costPin{"4x1x1/X=A/YZ=AB", machine.Cost{Bytes: 87736, Msgs: 272, Flops: 4137}, 30, 1, 0}},
		{"mesh cull", cull, all,
			costPin{"4x1x1/X=A/YZ=AB", machine.Cost{Bytes: 783696, Msgs: 1082, Flops: 29069}, 112, 4, 20}},
		{"mesh restore", restore, all,
			costPin{"4x1x1/X=A/YZ=AB", machine.Cost{Bytes: 759360, Msgs: 1146, Flops: 25984}, 118, 4, 28}},
	}
	sess, err := NewDistSession(mesh, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	g := mesh
	for _, st := range steps {
		g2 := g.Clone()
		if _, err := g2.ApplyAll(st.muts); err != nil {
			t.Fatal(err)
		}
		var diffs []EdgeDiff
		for _, m := range st.muts {
			w, ok := g2.FindEdge(m.U, m.V)
			diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
		}
		res, err := sess.ApplyIncrementalCtx(context.Background(), st.sources, g2, nil, diffs, st.sources)
		if err != nil {
			t.Fatal(err)
		}
		check(st.name, costPin{res.Plan.String(), res.Stats.MaxCost, res.Iterations, res.Batches, res.DualProducts}, st.want)
		g = g2
	}
}
