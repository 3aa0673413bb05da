// Command mfbc computes betweenness centrality for a graph with a selected
// engine, optionally on a simulated distributed machine with communication
// accounting.
//
// Examples:
//
//	mfbc -rmat 10,8 -engine mfbc -procs 16 -top 10
//	mfbc -in graph.txt -engine combblas -procs 4
//	mfbc -standin orkut-sim -engine mfbc -procs 64 -batch 64 -comm
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/graph"
)

func main() {
	in := flag.String("in", "", "edge-list file to load")
	rmat := flag.String("rmat", "", "generate R-MAT graph: scale,edgefactor")
	uniform := flag.String("uniform", "", "generate uniform graph: n,m")
	standin := flag.String("standin", "", "generate a SNAP stand-in (orkut-sim, ...)")
	weights := flag.Int("weights", 0, "add uniform integer weights in [1,w]")
	directed := flag.Bool("directed", false, "generate a directed graph (-rmat, -uniform only)")
	engine := flag.String("engine", "mfbc", "engine: mfbc | brandes | combblas")
	procs := flag.Int("procs", 1, "simulated processors")
	workers := flag.Int("workers", 0, "local kernel threads per processor (0 = all cores, shared across simulated ranks; 1 = sequential)")
	batch := flag.Int("batch", 0, "batch size n_b (0 = default)")
	top := flag.Int("top", 10, "print the top-k central vertices")
	comm := flag.Bool("comm", false, "print the communication report")
	normalize := flag.Bool("normalize", false, "normalize scores by (n-1)(n-2)")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "", "write all scores to a file (vertex<TAB>score)")
	flag.Parse()

	g, err := buildGraph(*in, *rmat, *uniform, *standin, *directed, *seed)
	if err != nil {
		fail(err)
	}
	if *weights > 1 {
		g.AddUniformWeights(1, *weights, *seed+1)
	}
	fmt.Printf("graph %s: n=%d m=%d directed=%v weighted=%v\n", g.Name, g.N, g.M(), g.Directed, g.Weighted)

	res, err := repro.Compute(g, repro.Options{
		Engine:    repro.Engine(*engine),
		Procs:     *procs,
		Workers:   *workers,
		Batch:     *batch,
		Normalize: *normalize,
	})
	if err != nil {
		fail(err)
	}
	if res.Plan != "" {
		fmt.Printf("engine=%s procs=%d plan=%s iterations=%d\n", res.Engine, res.Procs, res.Plan, res.Iterations)
	} else {
		fmt.Printf("engine=%s iterations=%d\n", res.Engine, res.Iterations)
	}
	if *comm {
		fmt.Printf("comm: %.3f MB, %d msgs, %d Mflops | modeled %.4fs (comm %.4fs) | wall %.3fs\n",
			float64(res.Comm.Bytes)/1e6, res.Comm.Msgs, res.Comm.Flops/1e6,
			res.Comm.ModelSec, res.Comm.CommSec, res.Comm.WallSec)
	}
	for rank, v := range repro.TopK(res.BC, *top) {
		fmt.Printf("#%-3d vertex %-8d bc %.6g\n", rank+1, v, res.BC[v])
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		for v, x := range res.BC {
			fmt.Fprintf(f, "%d\t%.12g\n", v, x)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d scores to %s\n", len(res.BC), *out)
	}
}

func buildGraph(in, rmat, uniform, standin string, directed bool, seed int64) (*repro.Graph, error) {
	if directed && (in != "" || standin != "") {
		return nil, fmt.Errorf("-directed applies to generated graphs (-rmat, -uniform), not -in or -standin")
	}
	var spec graph.GraphSpec
	switch {
	case in != "":
		return repro.LoadGraph(in)
	case rmat != "":
		s, e, err := pairArg(rmat)
		if err != nil {
			return nil, fmt.Errorf("bad -rmat %q: %w", rmat, err)
		}
		spec = graph.GraphSpec{Kind: "rmat", Scale: s, EdgeFactor: e}
	case uniform != "":
		n, m, err := pairArg(uniform)
		if err != nil {
			return nil, fmt.Errorf("bad -uniform %q: %w", uniform, err)
		}
		spec = graph.GraphSpec{Kind: "uniform", N: n, M: m}
	case standin != "":
		spec = graph.GraphSpec{Kind: "standin", ID: standin, Scale: 1}
	default:
		return nil, fmt.Errorf("one of -in, -rmat, -uniform, -standin is required")
	}
	spec.Directed, spec.Seed = directed, seed
	return spec.Build()
}

func pairArg(s string) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want two comma-separated integers")
	}
	a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mfbc:", err)
	os.Exit(1)
}
