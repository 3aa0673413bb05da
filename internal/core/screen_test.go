package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// scoreHash is an FNV-1a of the scores' bit patterns: equal hashes mean the
// vectors are bit-identical, which is what the pins below claim.
func scoreHash(vs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// pinnedGraphs are the inputs of the score pins: RMAT with and without
// direction and integer weights, and a weighted mesh (many rounds over
// narrow rows).
func pinnedGraphs() []*graph.Graph {
	var out []*graph.Graph
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			opt := graph.DefaultRMAT(7, 8, 3)
			opt.Directed = directed
			g := graph.RMAT(opt)
			g.Name = fmt.Sprintf("rmat-s7(directed=%t,weighted=%t)", directed, weighted)
			if weighted {
				g.AddUniformWeights(1, 9, 11)
			}
			out = append(out, g)
		}
	}
	mesh := graph.Grid2D(9, 9, 12, 5)
	mesh.Name = "mesh-9x9"
	return append(out, mesh)
}

// TestDistScoresPinned pins MFBCDistributed's scores, bit for bit, to
// literals captured at PR 27 — the commit before the frontier products were
// screened against T inside the multiply. The in-multiply screen may only
// drop what the merge and the post-screens drop anyway, so no plan, layout
// or processor count may move a single bit: automatic planning (plans change
// from round to round), a forced stationary-C plan (the screen runs in every
// product), a forced partial-C plan (the screen is ignored) and the 1D
// search.
func TestDistScoresPinned(t *testing.T) {
	summa := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}
	thm51 := spgemm.Plan{P1: 2, P2: 2, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAC}
	layouts := []struct {
		name string
		opt  DistOptions
	}{
		{"p1", DistOptions{Procs: 1}},
		{"p4/auto", DistOptions{Procs: 4}},
		{"p4/" + summa.String(), DistOptions{Procs: 4, Plan: &summa}},
		{"p4/" + thm51.String(), DistOptions{Procs: 4, Plan: &thm51}},
		{"p4/1D", DistOptions{Procs: 4, Constraint: spgemm.Only1D}},
		{"p6/auto", DistOptions{Procs: 6}},
		{"p6/1D", DistOptions{Procs: 6, Constraint: spgemm.Only1D}},
	}
	// Layouts group the closing sums differently, so each has its own bits.
	want := map[string]uint64{
		"rmat-s7(directed=false,weighted=false) p1":                 0x1aad4f358497c8d7,
		"rmat-s7(directed=false,weighted=false) p4/auto":            0x1aad4f358497c8d7,
		"rmat-s7(directed=false,weighted=false) p4/1x2x2/X=A/YZ=AB": 0x27d053446568d9ac,
		"rmat-s7(directed=false,weighted=false) p4/2x2x1/X=B/YZ=AC": 0xce1afaa04047e5d0,
		"rmat-s7(directed=false,weighted=false) p4/1D":              0x1aad4f358497c8d7,
		"rmat-s7(directed=false,weighted=false) p6/auto":            0xa4006974cb185d75,
		"rmat-s7(directed=false,weighted=false) p6/1D":              0x1aad4f358497c8d7,
		"rmat-s7(directed=false,weighted=true) p1":                  0x27f4029c338fd9d5,
		"rmat-s7(directed=false,weighted=true) p4/auto":             0x27f4029c338fd9d5,
		"rmat-s7(directed=false,weighted=true) p4/1x2x2/X=A/YZ=AB":  0xcbfdeecf3f9e26ef,
		"rmat-s7(directed=false,weighted=true) p4/2x2x1/X=B/YZ=AC":  0x84cd27312263ba70,
		"rmat-s7(directed=false,weighted=true) p4/1D":               0x27f4029c338fd9d5,
		"rmat-s7(directed=false,weighted=true) p6/auto":             0x27f4029c338fd9d5,
		"rmat-s7(directed=false,weighted=true) p6/1D":               0x27f4029c338fd9d5,
		"rmat-s7(directed=true,weighted=false) p1":                  0xa97e081c6cd520b4,
		"rmat-s7(directed=true,weighted=false) p4/auto":             0xa97e081c6cd520b4,
		"rmat-s7(directed=true,weighted=false) p4/1x2x2/X=A/YZ=AB":  0x1c10cc43687b3f34,
		"rmat-s7(directed=true,weighted=false) p4/2x2x1/X=B/YZ=AC":  0xf81c41bac27905d8,
		"rmat-s7(directed=true,weighted=false) p4/1D":               0xa97e081c6cd520b4,
		"rmat-s7(directed=true,weighted=false) p6/auto":             0xa97e081c6cd520b4,
		"rmat-s7(directed=true,weighted=false) p6/1D":               0xa97e081c6cd520b4,
		"rmat-s7(directed=true,weighted=true) p1":                   0xf0afa542f3e88133,
		"rmat-s7(directed=true,weighted=true) p4/auto":              0xf0afa542f3e88133,
		"rmat-s7(directed=true,weighted=true) p4/1x2x2/X=A/YZ=AB":   0xa3108bb929d493e4,
		"rmat-s7(directed=true,weighted=true) p4/2x2x1/X=B/YZ=AC":   0x2929a8aab2e1517d,
		"rmat-s7(directed=true,weighted=true) p4/1D":                0xf0afa542f3e88133,
		"rmat-s7(directed=true,weighted=true) p6/auto":              0xf0afa542f3e88133,
		"rmat-s7(directed=true,weighted=true) p6/1D":                0xf0afa542f3e88133,
		"mesh-9x9 p1":                 0xfa489d5b02b8d5e8,
		"mesh-9x9 p4/auto":            0xfa489d5b02b8d5e8,
		"mesh-9x9 p4/1x2x2/X=A/YZ=AB": 0x54168b68169aaecb,
		"mesh-9x9 p4/2x2x1/X=B/YZ=AC": 0xfcbaed313b113ef2,
		"mesh-9x9 p4/1D":              0xfa489d5b02b8d5e8,
		"mesh-9x9 p6/auto":            0xfa489d5b02b8d5e8,
		"mesh-9x9 p6/1D":              0xfa489d5b02b8d5e8,
	}
	for _, g := range pinnedGraphs() {
		for _, l := range layouts {
			opt := l.opt
			opt.Batch = 32
			res, err := MFBCDistributed(g, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, l.name, err)
			}
			name := g.Name + " " + l.name
			if got := scoreHash(res.BC); got != want[name] {
				t.Errorf("%s: scores moved: hash %#x, pinned %#x", name, got, want[name])
			}
		}
	}
}

// TestFusedStreamScoresPinned is the same pin for the fused incremental
// region: a three-step stream on one automatically planned p=4 session — a
// local reweight, a mass deletion that makes the two sides' plans diverge,
// a re-insertion — with both sides' partial scores hashed per step. The
// rounds whose sides agree on a plan run the pair screen; the divergent
// rounds take the split branch, which has none.
func TestFusedStreamScoresPinned(t *testing.T) {
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
	e5 := mesh.Edges[5]
	steps := []struct {
		name    string
		muts    []graph.Mutation
		sources []int32
		want    uint64
		dual    bool
	}{
		{"reweight", []graph.Mutation{{Op: graph.OpSetWeight, U: e5.U, V: e5.V, W: e5.W + 2}}, []int32{0, 5, 9, 27, 40, 63}, 0xe318744c463b57f4, false},
		{"cull", cull, all, 0x1a766f4d4c5d34a5, true},
		{"restore", restore, all, 0xe911523a5c95c286, true},
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
		if got := scoreHash(res.OldBC, res.NewBC); got != st.want {
			t.Errorf("%s: scores moved: hash %#x, pinned %#x", st.name, got, st.want)
		}
		if (res.DualProducts > 0) != st.dual {
			t.Errorf("%s: %d split-plan products, want some: %t", st.name, res.DualProducts, st.dual)
		}
		g = g2
	}
}

// TestScreenedSweepDropsLosers asserts the mechanism, not just the scores,
// through the machine.region span an operator would read: on the golden
// test's RMAT batch under the automatic plan, most products the sweeps
// evaluate are known losers against the rank's own block of T and never
// reach the kernel's sort. A share well under this one means T was not
// aligned with the product's distribution before the multiply — plans change
// from round to round — and the screen saw only the coordinates that
// happened to stay put. A partial-C plan evaluates products and screens none.
func TestScreenedSweepDropsLosers(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(8, 8, 1))
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32((i * 7) % g.N)
	}
	thm51 := spgemm.Plan{P1: 2, P2: 2, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAC}
	for _, c := range []struct {
		plan     *spgemm.Plan
		minShare float64
	}{{nil, 0.6}, {&thm51, 0}} {
		sess, err := NewDistSession(g, DistOptions{Procs: 4, Plan: c.plan})
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.NewTracer(1)
		ctx, root := tracer.Start(context.Background(), "test")
		if _, err := sess.RunCtx(ctx, sources); err != nil {
			t.Fatal(err)
		}
		root.End()
		var products, screened int64
		for _, rec := range tracer.Traces()[0] {
			if rec.Name == "machine.region" {
				products, screened = rec.Attrs["products"].(int64), rec.Attrs["screened_out"].(int64)
			}
		}
		share := float64(screened) / float64(products)
		t.Logf("plan %v: %d of %d products screened out (%.1f %%)", c.plan, screened, products, 100*share)
		if products == 0 || share < c.minShare || (c.minShare == 0 && screened != 0) {
			t.Errorf("plan %v: %d of %d products screened out, want a share ≥ %.2f (0: none)", c.plan, screened, products, c.minShare)
		}
	}
}

// TestScalarScreensMatchSided: the scalar screens decide every product as
// the per-side rule does over the one side, verdict for verdict, on the
// spgemm screen tests' graphs — RMAT scale 6 and a weighted 6×6 mesh — with
// T two Bellman-Ford rounds from 8 sources. The forward products are T's
// entries extended by one edge, the backward ones T's pattern lifted to
// centpaths and pulled back over one edge, each also as the exact zero, at
// coordinates on and off the block.
func TestScalarScreensMatchSided(t *testing.T) {
	mesh := graph.Grid2D(6, 6, 5, 2)
	mesh.Name = "mesh-6x6"
	rmat := graph.RMAT(graph.DefaultRMAT(6, 6, 4))
	rmat.Name = "rmat-s6"
	for _, g := range []*graph.Graph{rmat, mesh} {
		a := g.Adjacency()
		const rows = 8
		seed := sparse.NewCOO[algebra.MultPath](rows, g.N)
		for i := 0; i < rows; i++ {
			src := i * g.N / rows
			cols, vals := a.Row(src)
			for x, j := range cols {
				seed.Append(int32(i), j, algebra.BFAction(algebra.MultPath{M: 1}, vals[x]))
			}
		}
		mp := algebra.MultPathMonoid()
		tm := sparse.FromCOO(seed, mp)
		for r := 0; r < 2; r++ {
			ext, _ := sparse.Mul(tm, a, algebra.BFAction, mp)
			tm = sparse.EWise(tm, ext, mp)
		}
		block := tm.ToCOO().E
		var x blockIndex
		indexBlock(&x, block)
		fwd, fwdSided := scalarScreen(block, &x), sidedScreen(block, &x)
		back, backSided := scalarMask(block, &x), sidedMask[algebra.MultPath, algebra.CentPath](block, &x)
		var kept, dropped [2]int
		tally := func(dir int, keep bool) {
			if keep {
				kept[dir]++
			} else {
				dropped[dir]++
			}
		}
		for _, e := range block {
			cols, vals := a.Row(int(e.J))
			for y, j := range cols {
				for _, v := range []algebra.MultPath{algebra.BFAction(e.V, vals[y]), algebra.MultPathZero()} {
					if got, want := fwd(e.I, j, v), fwdSided(e.I, j, v); got != want {
						t.Fatalf("%s: forward product %v at (%d, %d): scalar screen keeps %t, the per-side rule %t", g.Name, v, e.I, j, got, want)
					}
					tally(0, fwd(e.I, j, v))
				}
				lifted := algebra.CentPath{W: e.V.W, P: 1 / e.V.M, C: 1}
				for _, v := range []algebra.CentPath{algebra.BrandesAction(lifted, vals[y]), algebra.CentPathZero()} {
					if got, want := back(e.I, j, v), backSided(e.I, j, v); got != want {
						t.Fatalf("%s: backward product %v at (%d, %d): scalar mask keeps %t, the per-side rule %t", g.Name, v, e.I, j, got, want)
					}
					tally(1, back(e.I, j, v))
				}
			}
		}
		t.Logf("%s: forward %d kept %d dropped, backward %d kept %d dropped", g.Name, kept[0], dropped[0], kept[1], dropped[1])
		if min(kept[0], dropped[0], kept[1], dropped[1]) == 0 {
			t.Errorf("%s: a verdict never occurred (forward kept/dropped %v/%v, backward %v/%v): the case tests too little", g.Name, kept[0], dropped[0], kept[1], dropped[1])
		}
	}
}
