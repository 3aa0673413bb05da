package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// stepOutcome is what one step of a session leaves: the scores of each of
// its regions' sides and each region's counts.
type stepOutcome struct {
	bc      [][]float64
	stats   []machine.RunStats
	iters   []int
	batches []int
}

func (o *stepOutcome) addRun(t *testing.T, r *DistResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	o.bc = append(o.bc, r.BC)
	o.stats = append(o.stats, r.Stats)
	o.iters = append(o.iters, r.Iterations)
	o.batches = append(o.batches, r.Batches)
}

// regionCounts is a region's RunStats without its wall-clock readings.
type regionCounts struct {
	Max     machine.Cost
	PerProc []machine.Cost
	Phases  []phaseCounts
}

type phaseCounts struct {
	Name    string
	Max     machine.Cost
	PerProc []machine.Cost
}

func countsOf(st machine.RunStats) regionCounts {
	c := regionCounts{Max: st.MaxCost, PerProc: st.PerProc}
	for _, ph := range st.Phases {
		c.Phases = append(c.Phases, phaseCounts{ph.Name, ph.MaxCost, ph.PerProc})
	}
	return c
}

// sameBits reports whether two score vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return false
		}
	}
	return true
}

// wipeStorage empties every rank's reused storage — its scratch store:
// send storage, A placement, sweep buffers, plan memo — leaving the
// operands as they are: the state a fresh session's ranks start from, with
// this session's operands staged.
func wipeStorage(s *DistSession) {
	for _, rk := range s.ranks {
		rk.store = machine.Store{}
	}
}

// TestReusedStorageCarriesNothing: a session's ranks keep their scratch
// store (send storage, A placement), their sweep buffers and their plan
// memo from region to region; none of it may carry anything from one region
// into the next. One session at p=4 runs an interleaving of scalar runs,
// fused pair applies, two-region applies (run, patch, run) and a
// vertex-growth reset, first at Workers 1, then at 2, then at 1 again, with
// batches of 8 so that every region sweeps several. Beside it a twin replays
// every step on ranks whose storage is wiped first — what a fresh session's
// ranks start from, over the same staged operands — and a fresh session
// built at the step's starting topology replays the step alone. After every
// step the scores equal both bit for bit, and every region's cost counts
// equal the twin's.
func TestReusedStorageCarriesNothing(t *testing.T) {
	g0 := graph.Grid2D(8, 8, 9, 5)
	edit := func(cur *graph.Graph, muts ...graph.Mutation) (*graph.Graph, []EdgeDiff) {
		t.Helper()
		next := cur.Clone()
		if _, err := next.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		var diffs []EdgeDiff
		for _, m := range muts {
			if m.Op == graph.OpAddVertex {
				continue
			}
			w, ok := next.FindEdge(m.U, m.V)
			diffs = append(diffs, EdgeDiff{U: m.U, V: m.V, W: w, Present: ok})
		}
		return next, diffs
	}
	e3, e20 := g0.Edges[3], g0.Edges[20]
	g1, d1 := edit(g0, graph.Mutation{Op: graph.OpSetWeight, U: e3.U, V: e3.V, W: e3.W + 4},
		graph.Mutation{Op: graph.OpRemoveEdge, U: e20.U, V: e20.V})
	g2, d2 := edit(g1, graph.Mutation{Op: graph.OpAddEdge, U: 0, V: 27, W: 3})
	g3, _ := edit(g2, graph.Mutation{Op: graph.OpAddVertex}, graph.Mutation{Op: graph.OpAddEdge, U: 64, V: 9, W: 2})
	e7 := g3.Edges[7]
	g4, d4 := edit(g3, graph.Mutation{Op: graph.OpSetWeight, U: e7.U, V: e7.V, W: e7.W + 2})
	g5, d5 := edit(g4, graph.Mutation{Op: graph.OpRemoveEdge, U: 0, V: 27})
	// toward restates a diff's edges as they stand in target: the diff of
	// an apply that undoes it.
	toward := func(target *graph.Graph, diffs []EdgeDiff) []EdgeDiff {
		out := make([]EdgeDiff, len(diffs))
		for x, d := range diffs {
			w, ok := target.FindEdge(d.U, d.V)
			out[x] = EdgeDiff{U: d.U, V: d.V, W: w, Present: ok}
		}
		return out
	}

	pivots := []int32{0, 3, 9, 11, 20, 27, 30, 41, 50, 63}
	all := func(n int) []int32 { return strideSources(n, n, 1) }
	run := func(sources []int32) func(*testing.T, *DistSession) stepOutcome {
		return func(t *testing.T, s *DistSession) (o stepOutcome) {
			r, err := s.Run(sources)
			o.addRun(t, r, err)
			return o
		}
	}
	fused := func(next *graph.Graph, diffs []EdgeDiff) func(*testing.T, *DistSession) stepOutcome {
		return func(t *testing.T, s *DistSession) stepOutcome {
			r, err := s.ApplyIncrementalCtx(context.Background(), pivots, next, nil, diffs)
			if err != nil {
				t.Fatal(err)
			}
			return stepOutcome{bc: [][]float64{r.OldBC, r.NewBC}, stats: []machine.RunStats{r.Stats},
				iters: []int{r.Iterations, r.DualProducts}, batches: []int{r.Batches}}
		}
	}
	twoRegion := func(next *graph.Graph, diffs []EdgeDiff) func(*testing.T, *DistSession) stepOutcome {
		return func(t *testing.T, s *DistSession) (o stepOutcome) {
			r, err := s.Run(pivots)
			o.addRun(t, r, err)
			s.Patch(next, nil, diffs)
			r, err = s.Run(pivots)
			o.addRun(t, r, err)
			return o
		}
	}
	reset := func(next *graph.Graph) func(*testing.T, *DistSession) stepOutcome {
		return func(t *testing.T, s *DistSession) (o stepOutcome) {
			s.reset(next, nil)
			r, err := s.Run(nil)
			o.addRun(t, r, err)
			return o
		}
	}
	steps := []struct {
		name    string
		workers int
		from    *graph.Graph
		do      func(*testing.T, *DistSession) stepOutcome
	}{
		{"run", 1, g0, run(nil)},
		{"fused", 1, g0, fused(g1, d1)},
		{"run pivots", 1, g1, run(pivots)},
		{"two-region", 1, g1, twoRegion(g2, d2)},
		{"fused back", 1, g2, fused(g1, toward(g1, d2))},
		{"reset grown", 1, g1, reset(g3)},
		{"run w2", 2, g3, run(all(g3.N))},
		{"fused w2", 2, g3, fused(g4, d4)},
		{"two-region w2", 2, g4, twoRegion(g5, d5)},
		{"run w1", 1, g5, run(nil)},
		{"fused w1", 1, g5, fused(g4, toward(g4, d5))},
	}

	opt := DistOptions{Procs: 4, Batch: 8}
	sess, err := NewDistSession(g0, opt)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewDistSession(g0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if sess.Graph() != st.from {
			t.Fatalf("%s: the session is not on the step's starting topology", st.name)
		}
		sess.opt.Workers, twin.opt.Workers = st.workers, st.workers
		got := st.do(t, sess)
		wipeStorage(twin)
		want := st.do(t, twin)
		fresh, err := NewDistSession(st.from, DistOptions{Procs: 4, Batch: 8, Workers: st.workers})
		if err != nil {
			t.Fatal(err)
		}
		alone := st.do(t, fresh)
		for x := range want.bc {
			if !sameBits(got.bc[x], want.bc[x]) {
				t.Fatalf("%s: scores %d differ from the wiped twin's\n got %v\nwant %v", st.name, x, got.bc[x], want.bc[x])
			}
			if !sameBits(got.bc[x], alone.bc[x]) {
				t.Fatalf("%s: scores %d differ from a fresh session's\n got %v\nwant %v", st.name, x, got.bc[x], alone.bc[x])
			}
		}
		if !reflect.DeepEqual(got.iters, want.iters) || !reflect.DeepEqual(got.batches, want.batches) {
			t.Fatalf("%s: iterations %v / batches %v, the wiped twin's %v / %v", st.name, got.iters, got.batches, want.iters, want.batches)
		}
		for x := range want.stats {
			if g, w := countsOf(got.stats[x]), countsOf(want.stats[x]); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: region %d counts differ from the wiped twin's\n got %+v\nwant %+v", st.name, x, g, w)
			}
		}
	}
}
