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
	Iterations int          // runs only
	Batches    int          // runs only
}

// TestModeledCostGolden pins the modeled cost of the distributed sweep to
// literals captured at the commit before the scalar and pair sweeps were
// unified (PR 17's parent). Host-side refactors and optimizations must not
// move them; a change that means to (a new plan search, a different
// collective) updates the literals and says why. The automatic-plan and
// mesh literals fell once a move between distributions that place every
// coordinate alike stopped running a superstep (the 4×1×1 plans' A is the
// shard's own hash, and a product's C often places as the next plan's C);
// plans and iteration counts stayed. Every literal fell again, in bytes and
// messages only, once a grid's communicators were named by rank arithmetic
// in place of a charged split. The stream's literals fell once an
// incremental apply swept by source over the replicated adjacency (the run
// before it had staged the replica): a scatter, an all-to-all and an
// allreduce, 8 messages however many rounds the sweeps take, in place of
// the pair sweep's per-round products (266, 1,030 and 1,118 messages).
// Their flops fell (4,054, 14,749 and 12,367) once the session kept no
// resident operands to splice each edit into, only the replica the route
// reads; the stream starts, as the engine does, with a recompute that
// stages that replica.
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
	check("rmat-s8 auto", costPin{auto.Plan.String(), auto.Stats.MaxCost, auto.Iterations, auto.Batches},
		costPin{"4x1x1/X=A/YZ=AB", machine.Cost{Bytes: 1192776, Msgs: 156, Flops: 104762}, 10, 1})

	plan := spgemm.Plan{P1: 2, P2: 2, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAC}
	forced, err := MFBCDistributed(rmat, DistOptions{Procs: 4, Sources: sources, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	check("rmat-s8 forced 3-D", costPin{forced.Plan.String(), forced.Stats.MaxCost, forced.Iterations, forced.Batches},
		costPin{"2x2x1/X=B/YZ=AC", machine.Cost{Bytes: 1429272, Msgs: 130, Flops: 129610}, 10, 1})

	// A three-step stream on one session after its first recompute: a
	// local reweight with a narrow pivot set, a mass deletion, and a
	// re-insertion.
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
			costPin{Plan: "4x1x1/X=B/YZ=AB", Cost: machine.Cost{Bytes: 4192, Msgs: 8, Flops: 3610}}},
		{"mesh cull", cull, all,
			costPin{Plan: "4x1x1/X=B/YZ=AB", Cost: machine.Cost{Bytes: 22080, Msgs: 8, Flops: 14457}}},
		{"mesh restore", restore, all,
			costPin{Plan: "4x1x1/X=B/YZ=AB", Cost: machine.Cost{Bytes: 20256, Msgs: 8, Flops: 11997}}},
	}
	sess, err := NewDistSession(mesh, DistOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RecomputeCtx(context.Background(), mesh, nil, nil, nil); err != nil {
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
		res, err := sess.ApplyIncrementalCtx(context.Background(), st.sources, g2, nil, nil, diffs)
		if err != nil {
			t.Fatal(err)
		}
		check(st.name, costPin{Plan: res.Plan.String(), Cost: res.Stats.MaxCost}, st.want)
		g = g2
	}
}
