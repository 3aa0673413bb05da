// Command graphgen generates benchmark graphs in the library's edge-list
// format: R-MAT power-law graphs, uniform random graphs, meshes, and the
// paper's SNAP stand-ins. It builds through graph.GraphSpec.Build, as the
// server's register route does, so a flag set the route would reject
// (a directed grid or stand-in, an empty R-MAT or uniform graph) is an
// error here too.
//
// Examples:
//
//	graphgen -kind rmat -scale 12 -edgefactor 16 -out rmat.txt
//	graphgen -kind uniform -n 10000 -m 200000 -directed -out uni.txt
//	graphgen -kind standin -name patents-sim -out patents.txt
//	graphgen -kind grid -rows 64 -cols 64 -maxw 10 -out road.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

// run parses args, builds the graph and writes it to -out, or to stdout
// when -out is empty; -stats goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "rmat", "rmat | uniform | grid | standin")
	scale := fs.Int("scale", 10, "rmat: log2 vertex count")
	edgefactor := fs.Int("edgefactor", 8, "rmat: average degree target")
	n := fs.Int("n", 1024, "uniform: vertices")
	m := fs.Int("m", 8192, "uniform: edges")
	rows := fs.Int("rows", 32, "grid: rows")
	cols := fs.Int("cols", 32, "grid: columns")
	maxw := fs.Int("maxw", 1, "grid: maximum integer weight (1 = unweighted)")
	name := fs.String("name", "orkut-sim", "standin: id")
	directed := fs.Bool("directed", false, "generate a directed graph")
	weights := fs.Int("weights", 0, "add uniform integer weights in [1,w]")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	stats := fs.Bool("stats", false, "print graph statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := graph.GraphSpec{
		Kind: *kind, Scale: *scale, EdgeFactor: *edgefactor, N: *n, M: *m,
		Rows: *rows, Cols: *cols, MaxWeight: *maxw, ID: *name,
		Directed: *directed, Seed: *seed, Weights: *weights,
	}
	if *kind == "standin" {
		spec.Scale = 1 // -scale is R-MAT's; a stand-in is written at its base size
	}
	g, err := spec.Build()
	if err != nil {
		return err
	}
	if *stats {
		st := graph.ComputeStats(g, 32, *seed)
		fmt.Fprintf(stderr, "n=%d m=%d k=%.2f maxdeg=%d diam=%d effdiam=%.1f reach=%.2f\n",
			st.N, st.M, st.AvgDegree, st.MaxDegree, st.Diameter, st.EffDiam, st.Reachable)
	}
	if *out != "" {
		return graph.SaveFile(*out, g)
	}
	return graph.WriteEdgeList(stdout, g)
}
