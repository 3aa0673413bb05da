package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

// distributedT runs the distributed forward sweep (sweepMFBF, Algorithm 1)
// from sources in one region over a one-shot session, as Run's region does
// before its backward sweep, and gathers T at rank 0.
func distributedT(t *testing.T, g *graph.Graph, sources []int32, opt DistOptions) (*sparse.CSR[algebra.MultPath], int, machine.RunStats) {
	t.Helper()
	sess, err := NewDistSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	mach := transportFor(sess.p, opt)
	pl := sess.planner(mach, g)
	alg := scalarAlgebra()
	var gathered *sparse.CSR[algebra.MultPath]
	var iters int
	stats, err := mach.Run(func(proc *machine.Proc) {
		sp := &sidePlans{sess: spgemm.NewSession(proc), pls: []planner{pl}, plans: make([]spgemm.Plan, 1)}
		sp.sess.Workers = opt.Workers
		buf := machine.Scratch[sweepBufs[algebra.MultPath, algebra.CentPath]](proc)
		tm, it := sweepMFBF(sp, buf, alg, sess.ranks[proc.Rank()].a, []*sparse.CSR[float64]{sess.adjCSR}, sources)
		full := testkit.Gather(proc.World(), tm, alg.mult)
		if proc.Rank() == 0 {
			gathered, iters = full, it
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return gathered, iters, stats
}

// TestSSSPDistributed holds the distributed forward sweep's T — distance and
// shortest-path multiplicity from each source, nothing at the source
// itself — to the Dijkstra oracle at p ∈ {1, 4, 6}, and to the sequential
// MFBF entry for entry.
func TestSSSPDistributed(t *testing.T) {
	g := graph.Grid2D(7, 7, 5, 8)
	sources := []int32{1, 10, 25}
	seq, _, _ := MFBF(g.Adjacency(), sources)
	for _, p := range []int{1, 4, 6} {
		tm, iters, stats := distributedT(t, g, sources, DistOptions{Procs: p, Workers: 1})
		if iters == 0 {
			t.Fatalf("p=%d: no iterations recorded", p)
		}
		if p > 1 && stats.MaxCost.Bytes == 0 {
			t.Fatalf("p=%d: no communication charged", p)
		}
		for s, src := range sources {
			wantD, wantS := refDijkstra(g, src)
			wantD[src], wantS[src] = math.Inf(1), 0
			dist, count := make([]float64, g.N), make([]float64, g.N)
			for v := range dist {
				dist[v] = math.Inf(1)
			}
			cols, vals := tm.Row(s)
			for k, v := range cols {
				dist[v], count[v] = vals[k].W, vals[k].M
			}
			for v := range dist {
				if dist[v] != wantD[v] || count[v] != wantS[v] {
					t.Fatalf("p=%d: T(%d,%d) = (%g, %g), want (%g, %g)", p, src, v, dist[v], count[v], wantD[v], wantS[v])
				}
			}
			seqCols, seqVals := seq.Row(s)
			if len(seqCols) != len(cols) {
				t.Fatalf("p=%d: source %d reaches %d vertices, sequential MFBF %d", p, src, len(cols), len(seqCols))
			}
			for k := range cols {
				if cols[k] != seqCols[k] || vals[k] != seqVals[k] {
					t.Fatalf("p=%d: T(%d,%d) = %+v, sequential MFBF T(%d,%d) = %+v", p, src, cols[k], vals[k], src, seqCols[k], seqVals[k])
				}
			}
		}
	}
}

// TestSSSPValidation: a source list naming a vertex outside the graph is
// refused with CheckSources' error before any forward sweep starts, by the
// distributed entry points themselves (the façade checks before routing,
// so its tests never reach these checks).
func TestSSSPValidation(t *testing.T) {
	g := testkit.Path(5)
	if err := CheckSources(g.N, nil); err != nil {
		t.Fatalf("a nil source list (every vertex) must pass: %v", err)
	}
	sess, err := NewDistSession(g, DistOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int32{99, -1} {
		want := fmt.Sprintf("core: source %d outside [0,5)", bad)
		if err := CheckSources(g.N, []int32{0, bad}); err == nil || err.Error() != want {
			t.Fatalf("CheckSources(%d) = %v, want %s", bad, err, want)
		}
		for name, call := range map[string]func() error{
			"MFBCDistributed": func() error {
				_, err := MFBCDistributed(g, DistOptions{Procs: 2, Sources: []int32{0, bad}})
				return err
			},
			"DistSession.Run": func() error { _, err := sess.Run([]int32{0, bad}); return err },
		} {
			if err := call(); err == nil || err.Error() != want {
				t.Errorf("%s with source %d = %v, want %s", name, bad, err, want)
			}
		}
	}
}
