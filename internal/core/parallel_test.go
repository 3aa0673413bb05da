package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

// workerCounts and batchWidths span the row partition's edge cases: one
// block, uneven blocks, and more workers than rows.
var (
	workerCounts = []int{1, 2, 3, 8}
	batchWidths  = []int{1, 5, 64}
)

// weightedDirected is a graph whose Aᵀ differs from A in pattern and in
// values, so a predecessor list read off the wrong operand, or off another
// worker's scratch, cannot go unnoticed.
func weightedDirected(seed int64) *graph.Graph {
	g := graph.Uniform(150, 900, true, seed)
	g.AddUniformWeights(1, 6, seed+1)
	return g
}

// TestMFBCWorkersInvariant: betweenness scores, op counts and iteration
// counts are bit-identical for every worker count and batch width, on
// unweighted, weighted and weighted directed graphs (blocking the source
// rows across workers must not perturb float summation order, and each
// worker's scratch must be its own).
func TestMFBCWorkersInvariant(t *testing.T) {
	wrmat := graph.RMAT(graph.DefaultRMAT(8, 8, 5))
	wrmat.AddUniformWeights(1, 10, 6)
	for _, g := range []*graph.Graph{graph.RMAT(graph.DefaultRMAT(8, 8, 5)), wrmat, weightedDirected(7)} {
		for _, nb := range batchWidths {
			base, err := MFBC(g, nil, Options{Batch: nb, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range append([]int{0}, workerCounts...) {
				res, err := MFBC(g, nil, Options{Batch: nb, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != base.Ops || res.Iterations != base.Iterations {
					t.Fatalf("%s weighted=%v nb=%d workers=%d: ops/iters differ (%d/%d vs %d/%d)",
						g.Name, g.Weighted, nb, w, res.Ops, res.Iterations, base.Ops, base.Iterations)
				}
				for v := range base.BC {
					if math.Float64bits(res.BC[v]) != math.Float64bits(base.BC[v]) {
						t.Fatalf("%s weighted=%v nb=%d workers=%d: BC[%d] = %v, want %v",
							g.Name, g.Weighted, nb, w, v, res.BC[v], base.BC[v])
					}
				}
			}
		}
	}
}

// batchOut is everything the three sweep entry points return for one batch.
type batchOut struct {
	t          *sparse.CSR[algebra.MultPath]
	z          *sparse.CSR[algebra.CentPath]
	bc         []float64
	opsF, opsB int64
	itF, itB   int
}

func runBatch(a, at *sparse.CSR[float64], sources []int32, workers int) batchOut {
	var o batchOut
	o.t, o.opsF, o.itF = MFBFParallel(a, sources, workers)
	o.z, o.opsB, o.itB = MFBrParallel(at, o.t, sources, workers)
	o.bc = make([]float64, a.Cols)
	ops, iters := MFBCBatchParallel(a, at, sources, o.bc, workers)
	if ops != o.opsF+o.opsB || iters != o.itF+o.itB {
		panic(fmt.Sprintf("batch ops/iters %d/%d, sweeps say %d/%d", ops, iters, o.opsF+o.opsB, o.itF+o.itB))
	}
	return o
}

// diff names the first bitwise difference between two batches' outputs, or
// returns "" when they are identical.
func (o batchOut) diff(want batchOut) string {
	if o.opsF != want.opsF || o.opsB != want.opsB || o.itF != want.itF || o.itB != want.itB {
		return fmt.Sprintf("ops/iters %d+%d/%d+%d, want %d+%d/%d+%d",
			o.opsF, o.opsB, o.itF, o.itB, want.opsF, want.opsB, want.itF, want.itB)
	}
	if !testkit.Equal(o.t, want.t, func(x, y algebra.MultPath) bool { return x == y }) {
		return "T matrix differs"
	}
	if !testkit.Equal(o.z, want.z, func(x, y algebra.CentPath) bool { return x == y }) {
		return "Z matrix differs"
	}
	for v := range want.bc {
		if math.Float64bits(o.bc[v]) != math.Float64bits(want.bc[v]) {
			return fmt.Sprintf("bc[%d] = %v, want %v", v, o.bc[v], want.bc[v])
		}
	}
	return ""
}

// TestMFBFParallelMatchesSequential checks the exported T and Z matrices
// themselves, not just the folded scores, for every worker count and batch
// width (including fewer rows than workers).
func TestMFBFParallelMatchesSequential(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(8, 8, 9))
	g.AddUniformWeights(1, 6, 3)
	a := g.Adjacency()
	at := sparse.Transpose(a)
	for _, nb := range batchWidths {
		sources := strideSources(g.N, nb, 11)
		want := runBatch(a, at, sources, 1)
		for _, w := range workerCounts {
			if d := runBatch(a, at, sources, w).diff(want); d != "" {
				t.Fatalf("nb=%d workers=%d: %s", nb, w, d)
			}
		}
	}
}

// TestBatchConcurrentCallers drives the pooled workspace from three
// goroutines at once over graphs of different size and 1, 2 and 3 workers,
// as the server's query and write paths do: every result must equal the
// solo run's, so a workspace recycled from another caller (wider or
// narrower rows, stale slab contents, predecessor lists laid out on another
// operand's row extents) never leaks into an answer.
func TestBatchConcurrentCallers(t *testing.T) {
	type job struct {
		a, at   *sparse.CSR[float64]
		sources []int32
		workers int
		want    batchOut
	}
	var jobs []job
	for i, g := range []*graph.Graph{
		graph.RMAT(graph.DefaultRMAT(8, 8, 3)),
		graph.Grid2D(7, 9, 5, 2),
		weightedDirected(4),
	} {
		a := g.Adjacency()
		at := sparse.Transpose(a)
		sources := strideSources(g.N, 12+20*i, 5)
		jobs = append(jobs, job{a, at, sources, 1 + i, runBatch(a, at, sources, 1)})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				if d := runBatch(j.a, j.at, j.sources, j.workers).diff(j.want); d != "" {
					t.Errorf("n=%d round %d: %s", j.a.Cols, round, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchAllocBudget gates the workspace reuse: once a warm-up batch has
// sized the pooled workspace, a batch allocates bookkeeping only — no
// slab, accumulator, frontier or CSR. The budget is 2× what a batch was
// measured to allocate when this test was written (184 bytes in 4 objects);
// the matrix-per-round kernel it replaced allocated 13.2 MB in 1,873
// objects on the same batch. The collector is held off so it cannot empty the pool
// mid-test, and the minimum over a few batches is gated because the race
// detector makes sync.Pool drop a quarter of what is put back.
func TestBatchAllocBudget(t *testing.T) {
	const maxBytes, maxObjects = 368, 8
	g := graph.RMAT(graph.DefaultRMAT(8, 8, 1))
	a := g.Adjacency()
	at := sparse.Transpose(a)
	sources := strideSources(g.N, 32, 7)
	bc := make([]float64, g.N)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	MFBCBatchParallel(a, at, sources, bc, 1)

	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 8; try++ {
		runtime.ReadMemStats(&before)
		MFBCBatchParallel(a, at, sources, bc, 1)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("warm batch allocates %d bytes in %d objects", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("warm batch allocates %d bytes in %d objects, budget %d bytes / %d objects", bytes, objects, maxBytes, maxObjects)
	}
}

// TestMFBCDistributedWorkersInvariant: the distributed engine must also be
// worker-count invariant (parallel local kernels inside simulated ranks),
// for a one-shot batch and for a fused incremental apply, under the
// automatic plan and under a forced stationary-C plan, where every backward
// product folds through one accumulator lane per worker.
func TestMFBCDistributedWorkersInvariant(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(7, 8, 11))
	mesh, mesh2, diffs, sources := fusedTestSetup(t, false)
	summa := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}
	for _, plan := range []*spgemm.Plan{nil, &summa} {
		var base uint64
		for _, w := range []int{1, 0, 2, 3, 4} {
			res, err := MFBCDistributed(g, DistOptions{Procs: 4, Batch: 32, Workers: w, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewDistSession(mesh, DistOptions{Procs: 4, Batch: 16, Workers: w, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(nil); err != nil {
				t.Fatal(err)
			}
			fused, err := sess.ApplyIncrementalCtx(context.Background(), sources, mesh2, nil, nil, diffs)
			if err != nil {
				t.Fatal(err)
			}
			h := scoreHash(res.BC, fused.OldBC, fused.NewBC)
			if w == 1 {
				base = h
			} else if h != base {
				t.Errorf("plan %v workers=%d: scores hash %#x, workers=1 %#x", plan, w, h, base)
			}
		}
	}
}
