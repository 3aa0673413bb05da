// Benchmarks regenerating the paper's evaluation artifacts: one Benchmark
// per table/figure (via the experiment harness in reduced "quick" form so a
// full -bench=. sweep stays tractable) plus micro-benchmarks of the
// underlying kernels. For full-size runs use cmd/mfbc-bench.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

func benchConfig() bench.Config {
	return bench.Config{Procs: []int{1, 4}, Quick: true, Batch: 16, Seed: 42}
}

// runExperiment drives one harness experiment per iteration and reports the
// average modeled MTEPS/node over its points.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var rate float64
	var count int
	for i := 0; i < b.N; i++ {
		pts, err := bench.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Err == "" && p.MTEPSNode > 0 {
				rate += p.MTEPSNode
				count++
			}
		}
	}
	if count > 0 {
		b.ReportMetric(rate/float64(count), "MTEPS/node")
	}
}

// BenchmarkTable2Stats regenerates Table 2 (graph properties).
func BenchmarkTable2Stats(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig1aStrongScalingMFBC regenerates Figure 1(a).
func BenchmarkFig1aStrongScalingMFBC(b *testing.B) { runExperiment(b, "fig1a") }

// BenchmarkFig1bStrongScalingCombBLAS regenerates Figure 1(b).
func BenchmarkFig1bStrongScalingCombBLAS(b *testing.B) { runExperiment(b, "fig1b") }

// BenchmarkFig1cRMAT regenerates Figure 1(c) (weighted + unweighted R-MAT).
func BenchmarkFig1cRMAT(b *testing.B) { runExperiment(b, "fig1c") }

// BenchmarkFig2aEdgeWeakScaling regenerates Figure 2(a).
func BenchmarkFig2aEdgeWeakScaling(b *testing.B) { runExperiment(b, "fig2a") }

// BenchmarkFig2bVertexWeakScaling regenerates Figure 2(b).
func BenchmarkFig2bVertexWeakScaling(b *testing.B) { runExperiment(b, "fig2b") }

// BenchmarkTable3CommCosts regenerates Table 3 (critical-path costs).
func BenchmarkTable3CommCosts(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkAblationDecomposition compares forced 1D/2D/3D decompositions.
func BenchmarkAblationDecomposition(b *testing.B) { runExperiment(b, "ablate-decomp") }

// BenchmarkAblationBatchSize sweeps n_b.
func BenchmarkAblationBatchSize(b *testing.B) { runExperiment(b, "ablate-batch") }

// --- kernel micro-benchmarks ---

// BenchmarkSpGEMMGustavson measures the local generalized SpGEMM kernel on
// a multpath-T-times-adjacency shape (the Bellman-Ford action over the
// multpath monoid).
func BenchmarkSpGEMMGustavson(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(11, 8, 1))
	a := g.Adjacency()
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(i * (g.N / 64))
	}
	t, _, _ := core.MFBF(a, sources)
	mp := algebra.MultPathMonoid()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		_, o := sparse.Mul(t, a, algebra.BFAction, mp)
		ops += o
	}
	b.ReportMetric(float64(ops)/float64(b.N), "ops/mul")
}

// BenchmarkMFBCWorkers measures an end-to-end MFBC batch (MFBF + MFBr +
// accumulation) on an R-MAT graph with ~65k edges (scale 13, edge factor
// 8) at increasing worker counts. On a host with >=4 cores, workers=4
// should run >=2x faster than workers=1: the frontier products dominate
// the batch and parallelize row-wise.
func BenchmarkMFBCWorkers(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(13, 8, 4))
	if g.M() < 50000 {
		b.Fatalf("graph too small: m=%d", g.M())
	}
	a := g.Adjacency()
	at := sparse.Transpose(a)
	sources := make([]int32, 128)
	for i := range sources {
		sources[i] = int32(i * (g.N / 128))
	}
	edges := float64(g.AdjacencyNNZ() * len(sources))
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			bc := make([]float64, g.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MFBCBatchParallel(a, at, sources, bc, w)
			}
			b.ReportMetric(float64(b.N)*edges/b.Elapsed().Seconds()/1e6, "MTEPS")
		})
	}
}

// BenchmarkMFBCEndToEndWorkers runs the same comparison on a one-rank
// simulated machine (core.MFBCDistributed at Procs 1), so the distributed
// plumbing — redistribution, entry-list kernels, merges — is included.
func BenchmarkMFBCEndToEndWorkers(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(13, 8, 4))
	sources := make([]int32, 128)
	for i := range sources {
		sources[i] = int32(i * (g.N / 128))
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MFBCDistributed(g, core.DistOptions{Procs: 1, Sources: sources, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMFBCSequentialBatch measures one sequential MFBF+MFBr batch on
// RMAT: wide rows, a handful of rounds.
func BenchmarkMFBCSequentialBatch(b *testing.B) {
	benchSequentialBatch(b, graph.RMAT(graph.DefaultRMAT(11, 8, 2)))
}

// BenchmarkMFBCSequentialBatchMesh is the other regime, the one the query
// service's write cycle runs in: a 14×14 mesh with near-continuous weights
// on the 2⁻¹⁰ grid, so rows are narrow and a sweep takes ~26 rounds.
func BenchmarkMFBCSequentialBatchMesh(b *testing.B) {
	benchSequentialBatch(b, gridMesh(14))
}

// gridMesh is a side×side mesh with weights in [1, 30] on the 2⁻¹⁰ grid.
func gridMesh(side int) *graph.Graph {
	g := graph.Grid2D(side, side, 1, 0)
	rng := rand.New(rand.NewSource(7))
	for i := range g.Edges {
		g.Edges[i].W = math.Round((1+29*rng.Float64())*1024) / 1024
	}
	g.Weighted = true
	return g
}

func benchSequentialBatch(b *testing.B, g *graph.Graph) {
	a := g.Adjacency()
	at := sparse.Transpose(a)
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32(i * (g.N / 32))
	}
	bc := make([]float64, g.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MFBCBatchParallel(a, at, sources, bc, 1)
	}
	edges := float64(g.AdjacencyNNZ() * len(sources))
	b.ReportMetric(float64(b.N)*edges/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkApproximateBCSequential measures a 32-sample estimate through the
// public API on the graph and budget of BenchmarkMFBCSequentialBatch. Read
// the two per-op times side by side: this one is that batch (over seeded
// random sources rather than strided ones) plus building A and Aᵀ, about 2×
// on this graph. A reading an order of magnitude apart means a sampled run
// at Procs 1 has left the sequential path for a 1-rank machine run again —
// the regression net for Compute's routing rule.
func BenchmarkApproximateBCSequential(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(11, 8, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ApproximateBC(g, 32, 1, Options{Procs: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrandesBatch measures the traversal-based oracle on the same
// batch for comparison.
func BenchmarkBrandesBatch(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(11, 8, 2))
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32(i * (g.N / 32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.BrandesSources(g, sources)
	}
}

// BenchmarkCombBLASSequentialBatch measures one CombBLAS-style batch.
func BenchmarkCombBLASSequentialBatch(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(11, 8, 2))
	a := g.Adjacency()
	at := sparse.Transpose(a)
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32(i * (g.N / 32))
	}
	bc := make([]float64, g.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.CombBLASBatch(a, at, sources, bc)
	}
}

// BenchmarkDistributedMultiply measures one whole MFBCDistributed batch of 16
// sources on the simulated machine with every product forced onto the p=4
// 2D SUMMA plan (C stationary, so the in-multiply screen runs in each).
func BenchmarkDistributedMultiply(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(10, 8, 3))
	sources := make([]int32, 16)
	for i := range sources {
		sources[i] = int32(i * (g.N / 16))
	}
	plan := spgemm.Plan{P1: 1, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.MFBCDistributed(g, core.DistOptions{Procs: 4, Sources: sources, Plan: &plan})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedBatch is the in-repo proxy for the repository
// benchmark's dist-rmat workload: one 32-source batch on RMAT scale 10 at
// p=4 on the simulated machine under the automatic plan, through Compute,
// for MFBC and for the CombBLAS-style baseline (2D only, masks after its
// product). mfbc over combblas is the workload's vs_baseline upside down.
func BenchmarkDistributedBatch(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(10, 8, 3))
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32(i * (g.N / 32))
	}
	for _, engine := range []Engine{EngineMFBC, EngineCombBLAS} {
		b.Run(string(engine), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(g, Options{Engine: engine, Procs: 4, Sources: sources, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedBatchMesh is the in-repo proxy for the other
// distributed regime, stream-road's full recomputes: one Compute over every
// source of a 16×16 mesh with 2⁻¹⁰-grid weights at p=4 on the simulated
// machine — many rounds, and T nearly dense. MFBC only: the CombBLAS-style
// baseline rejects weights.
func BenchmarkDistributedBatchMesh(b *testing.B) {
	g := gridMesh(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, Options{Procs: 4, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedLocalApply measures one warm fused incremental apply of the
// p=4 streaming engine on a 16×16 weighted mesh: a single-edge reweight
// that dirties 6 of the 256 sources (the repository benchmark's "local"
// class is n/64..n/32). Each rank sweeps its one or two pivots with the
// CSR kernel, tens of Bellman-Ford rounds over tiny frontiers, on both
// sides, in one region of three collectives, so the kernel and the
// region's fixed cost are what is timed, beside the engine's snapshot,
// probes and merge. The edge toggles between two weights.
func BenchmarkFusedLocalApply(b *testing.B) {
	g := graph.Grid2D(16, 16, 30, 1)
	dyn, err := NewDynamicBC(g, DynamicOptions{Procs: 4, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Edge (62,63) carries weight 23 on this seed.
	toggle := []Mutation{
		{Op: graph.OpSetWeight, U: 62, V: 63, W: 25},
		{Op: graph.OpSetWeight, U: 62, V: 63, W: 23},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := dyn.Apply(toggle[i%2 : i%2+1])
		if err != nil || !rep.Fused || rep.Affected != 6 {
			b.Fatalf("apply %d: fused=%v affected=%d err=%v", i, rep.Fused, rep.Affected, err)
		}
	}
}
