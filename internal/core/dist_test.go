package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

func checkDistAgainstBrandes(t *testing.T, g *graph.Graph, opt DistOptions) *DistResult {
	t.Helper()
	want := baseline.Brandes(g)
	got, err := MFBCDistributed(g, opt)
	if err != nil {
		t.Fatalf("%s (p=%d): %v", g.Name, opt.Procs, err)
	}
	for v := range want {
		if !almostEqual(got.BC[v], want[v]) {
			t.Fatalf("%s (p=%d, plan=%s): BC[%d]=%g, Brandes says %g",
				g.Name, opt.Procs, got.Plan, v, got.BC[v], want[v])
		}
	}
	return got
}

func TestDistMFBCSingleProc(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 3))
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 1, Batch: 16})
}

func TestDistMFBCProcCounts(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 8, 5))
	for _, p := range []int{2, 4, 8, 16} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: p, Batch: 32})
	}
}

func TestDistMFBCWeighted(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 9))
	g.AddUniformWeights(1, 100, 17)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 16})
}

func TestDistMFBCDirected(t *testing.T) {
	opt := graph.DefaultRMAT(6, 5, 13)
	opt.Directed = true
	g := graph.RMAT(opt)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 16})
}

func TestDistMFBCDirectedWeighted(t *testing.T) {
	opt := graph.DefaultRMAT(5, 6, 19)
	opt.Directed = true
	g := graph.RMAT(opt)
	g.AddUniformWeights(1, 9, 4)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 6, Batch: 8})
}

func TestDistMFBCForcedPlans(t *testing.T) {
	g := graph.Uniform(100, 600, false, 8)
	plans := []spgemm.Plan{
		{P1: 8, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}, // 1D replicate adjacency
		{P1: 1, P2: 4, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}, // pure 2D SUMMA
		{P1: 1, P2: 2, P3: 4, X: spgemm.RoleA, YZ: spgemm.VarAC}, // 2D with C reduction
		{P1: 1, P2: 2, P3: 4, X: spgemm.RoleA, YZ: spgemm.VarBC}, // 2D, adjacency stationary
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarAC}, // Theorem 5.1 layout
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleC, YZ: spgemm.VarAB}, // k-split layers
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}, // frontier-replicating 3D
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			checkDistAgainstBrandes(t, g, DistOptions{Procs: plan.Procs(), Batch: 16, Plan: &plan})
		})
	}
}

func TestDistMFBCConstraints(t *testing.T) {
	g := graph.Uniform(80, 500, true, 12)
	for _, cons := range []spgemm.Constraint{spgemm.Only1D, spgemm.Only2D, spgemm.Only3D} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: 8, Batch: 16, Constraint: cons})
	}
}

func TestDistMFBCBatchSizes(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 23))
	for _, nb := range []int{1, 5, 64, 1 << 10} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: nb})
	}
}

// TestMFBCDistributedChunksSources: an explicit source list is swept in
// Batch-sized chunks, as the sequential path and DistSession.Run sweep it,
// not as one batch however long the list is.
func TestMFBCDistributedChunksSources(t *testing.T) {
	g := graph.Grid2D(6, 6, 5, 8)
	sources := make([]int32, 12)
	for i := range sources {
		sources[i] = int32(3 * i)
	}
	res, err := MFBCDistributed(g, DistOptions{Procs: 4, Batch: 5, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 3 {
		t.Fatalf("12 sources at batch 5 ran %d batches, want 3", res.Batches)
	}
	want := baseline.BrandesSources(g, sources)
	for v := range want {
		if !almostEqual(res.BC[v], want[v]) {
			t.Fatalf("BC[%d]=%g, Brandes says %g", v, res.BC[v], want[v])
		}
	}
}

func TestDistMFBCDisconnected(t *testing.T) {
	g := &graph.Graph{Name: "twocomp", N: 9}
	g.Edges = []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
		{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1},
	}
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 4})
}

func TestDistMFBCCostsAccumulate(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 8, 29))
	res := checkDistAgainstBrandes(t, g, DistOptions{Procs: 8, Batch: 32})
	if res.Stats.MaxCost.Bytes == 0 || res.Stats.MaxCost.Msgs == 0 {
		t.Fatalf("distributed run charged no communication: %v", res.Stats.MaxCost)
	}
	if res.Stats.MaxCost.Flops == 0 {
		t.Fatal("distributed run charged no computation")
	}
	if res.Stats.ModelSec <= 0 || res.Stats.CommSec <= 0 {
		t.Fatal("modeled times must be positive")
	}
	// More processors must not increase per-processor critical-path flops
	// by more than the imbalance allowance.
	res1, err := MFBCDistributed(g, DistOptions{Procs: 1, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxCost.Flops > res1.Stats.MaxCost.Flops*2 {
		t.Fatalf("p=8 critical path flops %d exceed 2x the p=1 work %d",
			res.Stats.MaxCost.Flops, res1.Stats.MaxCost.Flops)
	}
}

// raceDetector reports a build with the race detector (race_test.go), whose
// instrumentation allocates the make argument of slices.Grow's append as
// well as the grown slice: a cold region, whose storage grows from nothing,
// reads about 40 % more bytes there.
var raceDetector bool

// TestOneShotAllocBudget gates the bytes of the one-shot distributed batch
// (MFBCDistributed, dist-rmat's regime), where every region places its
// operands afresh: RMAT scale 10, edge factor 8, 32 sources at p=4, one
// worker per rank. A one-shot region builds its ranks' storage from nothing,
// so its bytes are what placement, the sweeps' buffers and the products grow
// to, not per-round overhead. It allocated 46.9 MB while every
// redistribution copied each moved entry into a fresh buffer, out of the
// sender's part and through a k-way merge, 32.1 MB while every product was
// copied out of its accumulator and every stage block a rank received, stage
// merge and row index went to fresh storage, 27.8 MB while T's and Z's
// merges and moves each kept a rotation of their own, 24.9 MB while every
// collective built its payload's closures and its peer views per call,
// 24.75 MB while the adjacency and each rank's resident shards went
// through a COO and every rank built the whole batch's seed frontier, and
// allocates 21.4 MB now (47.2 MB, 41.5 MB, 38.7 MB, 33.1 MB, 33.0 MB and
// 29.7 MB under the race detector). The budgets are about 1.2× that. The collector
// is held off and the minimum of a few tries gated, so the test does not
// depend on when a cycle lands.
func TestOneShotAllocBudget(t *testing.T) {
	maxBytes := uint64(49 << 19) // 24.5 MiB
	if raceDetector {
		maxBytes = 34 << 20
	}
	g := graph.RMAT(graph.DefaultRMAT(10, 8, 1))
	opt := DistOptions{Procs: 4, Workers: 1, Batch: 32, Sources: strideSources(g.N, 32, 25)}
	if _, err := MFBCDistributed(g, opt); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 4; try++ {
		runtime.ReadMemStats(&before)
		if _, err := MFBCDistributed(g, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a one-shot batch allocates %d bytes", bytes)
	if bytes > maxBytes {
		t.Errorf("a one-shot batch allocates %d bytes, budget %d", bytes, maxBytes)
	}
}
