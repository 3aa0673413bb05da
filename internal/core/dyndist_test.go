package core

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spgemm"
)

// sessionStep draws one or two valid mutations on distinct edges of cur
// (occasionally growing the vertex set first), applies them to a clone, and
// returns the successor graph with the effective edge diff in Patch's form.
func sessionStep(t *testing.T, rng *rand.Rand, cur *graph.Graph, weighted bool) (*graph.Graph, []EdgeDiff) {
	t.Helper()
	next := cur.Clone()
	weight := func() float64 {
		if weighted {
			return float64(1 + rng.Intn(9))
		}
		return 1
	}
	type key [2]int32
	touched := map[key]bool{}
	var edges []key
	touch := func(u, v int32) bool {
		if !next.Directed && u > v {
			u, v = v, u
		}
		if touched[key{u, v}] {
			return false
		}
		touched[key{u, v}] = true
		edges = append(edges, key{u, v})
		return true
	}
	if rng.Intn(5) == 0 {
		if err := next.Apply(graph.Mutation{Op: graph.OpAddVertex}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1 + rng.Intn(2); len(edges) < want; {
		var m graph.Mutation
		switch e := next.Edges[rng.Intn(next.M())]; rng.Intn(4) {
		case 0:
			m = graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V}
		case 1:
			if !weighted {
				continue
			}
			m = graph.Mutation{Op: graph.OpSetWeight, U: e.U, V: e.V, W: weight()}
		default:
			u, v := int32(rng.Intn(next.N)), int32(rng.Intn(next.N))
			if _, exists := next.FindEdge(u, v); u == v || exists {
				continue
			}
			m = graph.Mutation{Op: graph.OpAddEdge, U: u, V: v, W: weight()}
		}
		if !touch(m.U, m.V) {
			continue
		}
		if err := next.Apply(m); err != nil {
			t.Fatalf("mutation %+v: %v", m, err)
		}
	}
	diffs := make([]EdgeDiff, len(edges))
	for i, e := range edges {
		w, ok := next.FindEdge(e[0], e[1])
		diffs[i] = EdgeDiff{U: e[0], V: e[1], W: w, Present: ok}
	}
	return next, diffs
}

// TestSessionPatchMatchesReset pins the operand delta-patch against its
// oracle: two sessions replay the same seeded mutation stream, one
// splicing each step's edge diff into its resident operands (Patch), one
// rebuilding and fully redistributing them (reset). After every step both
// must choose the same plan and return bit-identical scores for the same
// pivot re-run, while the patched session moves strictly fewer modeled
// bytes in total — the staging cost reset pays again per step is what
// residency amortizes. Steps that grow the vertex set exercise Patch's own
// reset fallback.
func TestSessionPatchMatchesReset(t *testing.T) {
	topologies := []struct {
		name     string
		build    func() *graph.Graph
		weighted bool
	}{
		{"rmat", func() *graph.Graph { return graph.RMAT(graph.DefaultRMAT(5, 6, 31)) }, false},
		{"grid-weighted", func() *graph.Graph { return graph.Grid2D(6, 6, 8, 31) }, true},
	}
	configs := []struct {
		name string
		opt  DistOptions
	}{
		{"p2", DistOptions{Procs: 2, Workers: 1}},
		{"p2-1d", DistOptions{Procs: 2, Workers: 1, Constraint: spgemm.Only1D}},
		{"p4", DistOptions{Procs: 4, Workers: 1}},
		{"p4-2d", DistOptions{Procs: 4, Workers: 1, Constraint: spgemm.Only2D}},
		{"p4-3d", DistOptions{Procs: 4, Workers: 1, Constraint: spgemm.Only3D}},
	}
	for _, topo := range topologies {
		for _, cfg := range configs {
			t.Run(topo.name+"/"+cfg.name, func(t *testing.T) {
				g := topo.build()
				patched, err := NewDistSession(g, cfg.opt)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := NewDistSession(g, cfg.opt)
				if err != nil {
					t.Fatal(err)
				}
				// The engine's initial compute: stages every working set once.
				for _, s := range []*DistSession{patched, rebuilt} {
					if _, err := s.Run(nil); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(23))
				var patchedBytes, rebuiltBytes int64
				for step := 0; step < 5; step++ {
					var diffs []EdgeDiff
					g, diffs = sessionStep(t, rng, g, topo.weighted)
					patched.Patch(g, nil, diffs)
					rebuilt.reset(g, nil)
					// An incremental-style pivot re-run: a seeded ascending
					// quarter of the sources.
					var sources []int32
					for v := 0; v < g.N; v++ {
						if rng.Intn(4) == 0 {
							sources = append(sources, int32(v))
						}
					}
					rp, err := patched.Run(sources)
					if err != nil {
						t.Fatalf("step %d: patched: %v", step, err)
					}
					rr, err := rebuilt.Run(sources)
					if err != nil {
						t.Fatalf("step %d: rebuilt: %v", step, err)
					}
					if rp.Plan != rr.Plan {
						t.Fatalf("step %d: plans diverged: patched %s vs rebuilt %s", step, rp.Plan, rr.Plan)
					}
					for v := range rr.BC {
						if rp.BC[v] != rr.BC[v] {
							t.Fatalf("step %d: bc[%d] bit-diverged: patched %v vs rebuilt %v (delta-patched operands are not identical to full redistribution)",
								step, v, rp.BC[v], rr.BC[v])
						}
					}
					patchedBytes += rp.Stats.MaxCost.Bytes
					rebuiltBytes += rr.Stats.MaxCost.Bytes
				}
				if patchedBytes >= rebuiltBytes {
					t.Fatalf("delta-patching moved %d modeled bytes, full redistribution %d: operand reuse did not amortize",
						patchedBytes, rebuiltBytes)
				}
				// The patched operands still encode the evolved graph exactly.
				full, err := patched.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				want := baseline.Brandes(g)
				for v := range want {
					if !almostEqual(full.BC[v], want[v]) {
						t.Fatalf("evolved graph: bc[%d] = %v, Brandes %v", v, full.BC[v], want[v])
					}
				}
			})
		}
	}
}

// TestResetKeepsPendingPatchWork: the splice work a host-side Patch leaves
// pending is charged by the next region even when a vertex-set change
// rebuilds the operands before it runs — delta-patching is never free
// compute.
func TestResetKeepsPendingPatchWork(t *testing.T) {
	g := graph.Grid2D(6, 6, 8, 31)
	sess, err := NewDistSession(g, DistOptions{Procs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	reweighted := g.Clone()
	e := reweighted.Edges[0]
	if err := reweighted.Apply(graph.Mutation{Op: graph.OpSetWeight, U: e.U, V: e.V, W: e.W + 1}); err != nil {
		t.Fatal(err)
	}
	sess.Patch(reweighted, nil, []EdgeDiff{{U: e.U, V: e.V, W: e.W + 1, Present: true}})
	var pending int64
	for _, rk := range sess.ranks {
		pending += rk.pendingFlops
	}
	if pending == 0 {
		t.Fatal("the reweight left no splice work pending")
	}
	grown := reweighted.Clone()
	if err := grown.Apply(graph.Mutation{Op: graph.OpAddVertex}); err != nil {
		t.Fatal(err)
	}
	sess.Patch(grown, nil, nil) // a vertex-set change: reset
	res, err := sess.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var charged int64
	for _, ph := range res.Stats.Phases {
		if ph.Name == machine.PhasePatch {
			for _, c := range ph.PerProc {
				charged += c.Flops
			}
		}
	}
	if charged != pending {
		t.Fatalf("the region after reset charged %d patch flops, %d were pending", charged, pending)
	}
}
