// The streaming-distributed scenario: the dynamic engine on the simulated
// machine, applying a congestion-style mutation stream to a weighted mesh
// and recording the modeled communication (W, S, α–β–γ seconds) of every
// fused incremental apply. A from-scratch distributed run on the evolved
// topology anchors the series, and an optional sample-budget axis
// (Config.Samples) replays the stream through sampled-mode engines,
// recording budget vs. modeled communication and the Hoeffding bound.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
)

// StreamingDist measures the distributed-dynamic path per simulated node
// count (counts below 2 are skipped: the engine would take the
// shared-memory path and model no communication).
func StreamingDist(cfg Config) ([]Point, error) {
	cfg.fill()
	rows, cols, rounds := 16, 16, 6
	if cfg.Quick {
		rows, cols, rounds = 8, 8, 3
	}
	base := graph.Grid2D(rows, cols, 1, cfg.Seed)
	// Continuous weights keep shortest paths near-unique, so reweights
	// stay local — the regime where incremental maintenance pays.
	wrng := rand.New(rand.NewSource(cfg.Seed + 1))
	for i := range base.Edges {
		base.Edges[i].W = 1 + 29*wrng.Float64()
	}
	base.Weighted = true
	base.Name = fmt.Sprintf("mesh-%dx%d", rows, cols)

	fmt.Fprintf(cfg.Out, "\n== Streaming-distributed: fused applies vs from-scratch runs on %s ==\n", base.Name)
	fmt.Fprintf(cfg.Out, "%-22s %5s %6s %9s %12s %10s %10s %s\n",
		"series", "p", "aff", "strategy", "W (bytes)", "S (msgs)", "model(s)", "plan")

	var pts []Point
	ran := false
	for _, p := range cfg.Procs {
		if p < 2 {
			continue
		}
		ran = true
		// DirtyThreshold < 0 pins every apply to the incremental path: the
		// series records the *incremental* apply, and a full-recompute
		// fallback would blank it on small quick-mode meshes.
		tr, done, err := cfg.newTransport(p)
		if err != nil {
			return nil, err
		}
		eng, err := dynamic.New(base, dynamic.Config{
			Procs: p, Batch: cfg.Batch, Workers: cfg.Workers,
			DirtyThreshold: -1, Seed: cfg.Seed, Transport: tr,
		})
		if err != nil {
			done()
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed*3 + int64(p)))
		for round := 0; round < rounds; round++ {
			batch := meshBatch(rng, eng.Graph(), 1+rng.Intn(2))
			rep, err := eng.Apply(batch)
			if err != nil {
				done()
				return nil, err
			}
			pt := Point{
				Experiment: "streaming-dist", Graph: base.Name, Engine: "dynamic-mfbc-fused",
				Weighted: true, Procs: p, Batch: cfg.Batch, N: rep.N, M: rep.M,
				Plan: rep.Plan, Strategy: string(rep.Strategy), Affected: rep.Affected,
				Fused:    rep.Fused,
				ModelSec: rep.Comm.ModelSec, CommSec: rep.Comm.CommSec,
				WallSec: rep.Wall.Seconds(), Bytes: rep.Comm.Bytes, Msgs: rep.Comm.Msgs,
			}
			fmt.Fprintf(cfg.Out, "%-22s %5d %6d %9s %12d %10d %10.5f %s\n",
				"apply-fused", p, pt.Affected, pt.Strategy, pt.Bytes, pt.Msgs, pt.ModelSec, pt.Plan)
			pts = append(pts, pt)
		}
		evolved := eng.Graph()
		done()
		// The baseline every apply is implicitly compared against: a cold
		// from-scratch distributed run on the evolved topology.
		ftr, fdone, err := cfg.newTransport(p)
		if err != nil {
			return nil, err
		}
		full, err := core.MFBCDistributed(evolved, core.DistOptions{Procs: p, Workers: cfg.Workers, Batch: cfg.Batch, Transport: ftr})
		fdone()
		if err != nil {
			return nil, err
		}
		pt := Point{
			Experiment: "streaming-dist", Graph: base.Name + "/from-scratch", Engine: "ctf-mfbc",
			Weighted: true, Procs: p, Batch: cfg.Batch, N: evolved.N, M: evolved.M(),
			Plan: full.Plan.String(), Strategy: "from-scratch", Affected: evolved.N,
			ModelSec: full.Stats.ModelSec, CommSec: full.Stats.CommSec,
			WallSec: full.Stats.Wall.Seconds(), Bytes: full.Stats.MaxCost.Bytes,
			Msgs: full.Stats.MaxCost.Msgs, Iters: full.Iterations,
			MTEPSNode: mteps(evolved.AdjacencyNNZ(), evolved.N, p, full.Stats.ModelSec),
		}
		fmt.Fprintf(cfg.Out, "%-22s %5d %6d %9s %12d %10d %10.5f %s\n",
			"from-scratch", p, pt.Affected, pt.Strategy, pt.Bytes, pt.Msgs, pt.ModelSec, pt.Plan)
		pts = append(pts, pt)

		// Sample-budget axis: replay the stream through sampled-mode
		// engines, one per budget, recording modeled comm against the
		// budget and the Hoeffding half-width of the estimates.
		for _, budget := range cfg.Samples {
			if budget <= 0 {
				continue
			}
			str, sdone, err := cfg.newTransport(p)
			if err != nil {
				return nil, err
			}
			eng, err := dynamic.New(base, dynamic.Config{
				Procs: p, Batch: cfg.Batch, Workers: cfg.Workers,
				DirtyThreshold: 0.5, Seed: cfg.Seed,
				SampleBudget: budget, RefreshEvery: rounds + 1, // keep every apply sampled
				Transport: str,
			})
			if err != nil {
				sdone()
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed*3 + int64(p)))
			for round := 0; round < rounds; round++ {
				batch := meshBatch(rng, eng.Graph(), 1+rng.Intn(2))
				rep, err := eng.Apply(batch)
				if err != nil {
					sdone()
					return nil, err
				}
				pt := Point{
					Experiment: "streaming-dist", Graph: base.Name, Engine: "dynamic-mfbc-sampled",
					Weighted: true, Procs: p, Batch: cfg.Batch, N: rep.N, M: rep.M,
					Plan: rep.Plan, Strategy: string(rep.Strategy), Affected: rep.Affected,
					Samples: budget, ErrBound: rep.ErrBound,
					ModelSec: rep.Comm.ModelSec, CommSec: rep.Comm.CommSec,
					WallSec: rep.Wall.Seconds(), Bytes: rep.Comm.Bytes, Msgs: rep.Comm.Msgs,
				}
				fmt.Fprintf(cfg.Out, "%-22s %5d %6d %9s %12d %10d %10.5f %s (k=%d ±%.1f)\n",
					"apply-sampled", p, pt.Affected, pt.Strategy, pt.Bytes, pt.Msgs, pt.ModelSec, pt.Plan, budget, pt.ErrBound)
				pts = append(pts, pt)
			}
			sdone()
		}
	}
	if !ran {
		return nil, fmt.Errorf("bench: streaming-dist needs at least one proc count ≥ 2 (got %v)", cfg.Procs)
	}
	return pts, nil
}

// meshBatch draws k valid mutations with a road-traffic profile: mostly
// congestion reweights of existing links, an occasional new link or
// closure.
func meshBatch(rng *rand.Rand, g *graph.Graph, k int) []graph.Mutation {
	shadow := g.Clone()
	batch := make([]graph.Mutation, 0, k)
	for len(batch) < k {
		var m graph.Mutation
		switch rng.Intn(8) {
		case 0: // close a link
			if shadow.M() <= shadow.N {
				continue
			}
			e := shadow.Edges[rng.Intn(shadow.M())]
			m = graph.Mutation{Op: graph.OpRemoveEdge, U: e.U, V: e.V}
		case 1: // open a new local link
			u := int32(rng.Intn(shadow.N - 1))
			v := u + 1 + int32(rng.Intn(3))
			if int(v) >= shadow.N {
				continue
			}
			if _, exists := shadow.FindEdge(u, v); exists {
				continue
			}
			m = graph.Mutation{Op: graph.OpAddEdge, U: u, V: v, W: 1 + 29*rng.Float64()}
		default: // congestion: a link's travel time creeps up
			e := shadow.Edges[rng.Intn(shadow.M())]
			m = graph.Mutation{Op: graph.OpSetWeight, U: e.U, V: e.V, W: e.W * (1.05 + 0.15*rng.Float64())}
		}
		if err := shadow.Apply(m); err != nil {
			continue
		}
		batch = append(batch, m)
	}
	return batch
}
