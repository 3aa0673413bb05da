// Streaming walkthrough: maintain betweenness centrality over a live,
// mutating graph with the dynamic engine.
//
// Part 1 streams traffic-style weight updates over a weighted mesh (a
// road-network profile: near-unique shortest paths keep each update
// local), comparing every incremental refresh against what a full
// recomputation of the same topology costs. Part 2 estimates the live
// graph's scores from a few sampled sources with repro.ApproximateBC — the
// cheap path when exact maintenance is not worth it — and sets each
// estimate's Hoeffding error bound beside its actual error against the
// maintained exact scores. Part 3 runs the same kind of stream, on weights
// rounded to the 2⁻¹⁰ grid, on the simulated distributed machine
// (Procs: 4): the stationary adjacency operands stay resident across
// applies, and each incremental apply executes as ONE fused machine
// region — the old-side and new-side pivot re-runs ride the same
// supersteps over the pair semiring, with the edge diff scattered and
// spliced mid-region — so the latency term (S) is paid once, not twice.
// The per-apply report breaks the cost into its diff/patch/sweep/reduce
// phases, and every apply is checked against a from-scratch Compute.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro"
)

func main() {
	// A mesh with continuous edge weights: like real road travel times,
	// shortest paths are (almost surely) unique, so a weight update only
	// disturbs the sources actually routing through the touched link. The
	// integer-weighted generators would instead create huge shortest-path
	// tie sets where every jitter cascades graph-wide.
	g := repro.GridGraph(22, 22, 1, 42)
	wrng := rand.New(rand.NewSource(11))
	for i := range g.Edges {
		g.Edges[i].W = 1 + 29*wrng.Float64()
	}
	g.Weighted = true
	fmt.Printf("live graph: %q  n=%d m=%d (weighted mesh ≈ road network)\n\n", g.Name, g.N, g.M())

	start := time.Now()
	dyn, err := repro.NewDynamicBC(g, repro.DynamicOptions{Workers: 0, DirtyThreshold: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial exact compute: %.1f ms\n\n", ms(time.Since(start)))

	// --- 1. Update stream: apply small seeded mutation batches (mostly
	// congestion-style reweights, plus the odd link add/drop) and time
	// each refresh against a from-scratch recompute of the same topology.
	// The engine adapts per batch: updates touching few shortest paths
	// re-run only the affected pivots, while arterial-edge updates whose
	// affected fraction exceeds the dirtiness threshold recompute fully.
	fmt.Println("batch  muts  affected/n     strategy       refresh      full recompute   max |Δ|")
	rng := rand.New(rand.NewSource(7))
	for round := 1; round <= 8; round++ {
		batch := roadBatch(rng, dyn.Graph(), 1+rng.Intn(2), false)
		rep, err := dyn.Apply(batch)
		if err != nil {
			log.Fatal(err)
		}

		t0 := time.Now()
		full, err := repro.Compute(dyn.Graph(), repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fullMS := ms(time.Since(t0))

		fmt.Printf("%5d  %4d  %6d/%-5d  %-11s  %9.1f ms  %12.1f ms   %.2g\n",
			round, rep.Applied, rep.Affected, rep.N, rep.Strategy,
			rep.WallMS, fullMS, mustMatch(round, dyn.Scores().BC, full.BC))
	}
	st := dyn.Stats()
	fmt.Printf("\nexact stream: %d applies, %d incremental, %d full fallbacks, "+
		"%d affected sources identified in total (a full recompute re-runs %d every time)\n\n",
		st.Applies, st.IncrementalRuns, st.FullRecomputes,
		st.AffectedSources, dyn.Graph().N)

	// --- 2. Sampled estimates of the live graph: ApproximateBC sweeps only
	// k random sources and scales by n/k. Its ErrBound is a 95% Hoeffding
	// half-width per vertex — loose (it ignores variance), so the actual
	// error against the engine's exact scores sits well inside it.
	exact := dyn.Scores()
	fmt.Printf("sampled estimates of the live graph (n=%d) against its exact scores:\n", exact.Graph.N)
	fmt.Println("samples      time     95% bound    max |Δ|")
	for _, k := range []int{16, 64, 256} {
		t0 := time.Now()
		est, err := repro.ApproximateBC(exact.Graph, k, 1, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d  %5.1f ms  %11.4g  %9.4g\n",
			k, ms(time.Since(t0)), est.ErrBound, maxDiff(est.BC, exact.BC))
	}
	fmt.Println()

	// --- 3. Distributed streaming: the same engine, but every sweep runs
	// on the simulated 4-processor machine. Incremental applies execute as
	// one fused region (rep.Fused): both sides of the update share each
	// superstep's collectives, the diff arrives by a modeled scatter, and
	// the operand splice is charged as local γ-flops — the per-apply
	// report attributes the cost to the diff/patch/sweep/reduce phases,
	// and the modeled messages sit near a single run instead of two. The
	// weights live on the 2⁻¹⁰ grid: at Procs > 1 the sweeps compare path
	// weights summed in different orders, which on arbitrary reals round
	// apart and drop predecessors (README "Known limits"); sums of grid
	// weights are exact in any order.
	mesh := repro.GridGraph(12, 12, 1, 5)
	drng := rand.New(rand.NewSource(19))
	for i := range mesh.Edges {
		mesh.Edges[i].W = dyadic(1 + 29*drng.Float64())
	}
	mesh.Weighted = true
	dist, err := repro.NewDynamicBC(mesh, repro.DynamicOptions{
		Workers: 0, Procs: 4, DirtyThreshold: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	init := dist.Scores()
	fmt.Printf("distributed streaming on %q n=%d m=%d, procs=4 (plan %s):\n",
		mesh.Name, mesh.N, mesh.M(), init.Plan)
	fmt.Println("batch  affected/n     strategy     fused   W (bytes)   S (msgs)   model(s)   max |Δ|   plan")
	var lastFused repro.ApplyReport
	for round := 1; round <= 5; round++ {
		rep, err := dist.Apply(roadBatch(rng, dist.Graph(), 1+rng.Intn(2), true))
		if err != nil {
			log.Fatal(err)
		}
		full, err := repro.Compute(dist.Graph(), repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %6d/%-5d  %-11s  %5v  %10d  %9d  %9.6f  %8.2g   %s\n",
			round, rep.Affected, rep.N, rep.Strategy, rep.Fused,
			rep.Comm.Bytes, rep.Comm.Msgs, rep.Comm.ModelSec,
			mustMatch(round, dist.Scores().BC, full.BC), rep.Plan)
		if rep.Fused {
			lastFused = rep
		}
	}
	if lastFused.Fused {
		fmt.Println("phase attribution of the last fused apply:")
		for _, ph := range lastFused.Phases {
			fmt.Printf("  %-7s W=%-9d S=%-6d flops=%-9d model %.6fs\n",
				ph.Name, ph.Bytes, ph.Msgs, ph.Flops, ph.ModelSec)
		}
	}
	scratch, err := repro.Compute(dist.Graph(), repro.Options{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}
	total := dist.Stats().Comm
	fmt.Printf("from-scratch distributed run on the evolved mesh: %d bytes, %d msgs, %.6f model s (plan %s)\n",
		scratch.Comm.Bytes, scratch.Comm.Msgs, scratch.Comm.ModelSec, scratch.Plan)
	fmt.Printf("cumulative stream communication (%d machine runs incl. the initial compute): %d bytes\n\n",
		total.Runs, total.Bytes)

	// --- 4. The maintained scores of the evolved road network.
	top := repro.TopK(dyn.Scores().BC, 5)
	fmt.Println("top-5 central vertices of the evolved road network:")
	for i, v := range top {
		fmt.Printf("  #%d vertex %-6d bc %.6g\n", i+1, v, dyn.Scores().BC[v])
	}
}

// roadBatch draws k valid mutations with a road-traffic profile: mostly
// reweights of existing links, an occasional new link or closure. With
// onGrid every new weight is rounded to the 2⁻¹⁰ grid.
func roadBatch(rng *rand.Rand, g *repro.Graph, k int, onGrid bool) []repro.Mutation {
	shadow := g.Clone()
	batch := make([]repro.Mutation, 0, k)
	for len(batch) < k {
		var m repro.Mutation
		switch rng.Intn(8) {
		case 0: // close a link
			if shadow.M() <= shadow.N {
				continue
			}
			e := shadow.Edges[rng.Intn(shadow.M())]
			m = repro.Mutation{Op: repro.MutRemoveEdge, U: e.U, V: e.V}
		case 1: // open a new local link
			u := int32(rng.Intn(shadow.N - 1))
			v := u + 1 + int32(rng.Intn(3))
			if int(v) >= shadow.N {
				continue
			}
			if _, exists := shadow.FindEdge(u, v); exists {
				continue
			}
			m = repro.Mutation{Op: repro.MutAddEdge, U: u, V: v, W: 1 + 29*rng.Float64()}
		default: // congestion: a link's travel time creeps up
			e := shadow.Edges[rng.Intn(shadow.M())]
			m = repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V,
				W: e.W * (1.05 + 0.15*rng.Float64())}
		}
		if onGrid {
			m.W = dyadic(m.W)
		}
		if err := shadow.Apply(m); err != nil {
			continue
		}
		batch = append(batch, m)
	}
	return batch
}

// dyadic rounds a weight to the 2⁻¹⁰ grid.
func dyadic(w float64) float64 { return math.Round(w*1024) / 1024 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mustMatch returns max |Δ| between maintained and from-scratch scores and
// stops the walkthrough if they drift apart: `make examples` runs this
// program as a check, not only as a demo.
func mustMatch(round int, maintained, scratch []float64) float64 {
	d := maxDiff(maintained, scratch)
	if d > 1e-6 {
		log.Fatalf("batch %d: maintained scores are %g away from a from-scratch compute", round, d)
	}
	return d
}

// maxDiff is max_v |a[v] − b[v]|.
func maxDiff(a, b []float64) float64 {
	var m float64
	for v := range a {
		m = math.Max(m, math.Abs(a[v]-b[v]))
	}
	return m
}
