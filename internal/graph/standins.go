package graph

import (
	"fmt"
	"math/rand"
)

// The paper benchmarks four SNAP graphs (Table 2). The datasets themselves
// are multi-gigabyte downloads unavailable in this offline reproduction, so
// we substitute degree/diameter/directedness-matched synthetic stand-ins at
// roughly 1/400 scale. The features that drive the paper's
// performance narrative — density k, diameter d (iteration count),
// directedness, and degree skew — are matched; absolute sizes are not.

// StandinSpec describes one stand-in and the SNAP original it models.
type StandinSpec struct {
	ID        string // short id used by CLIs and benchmarks
	SNAPName  string
	Directed  bool
	PaperN    int64 // original vertex count
	PaperM    int64 // original edge count
	PaperDiam int   // original diameter (Table 2)
}

// Standins lists the four Table-2 graphs in the paper's order (sorted by m).
var Standins = []StandinSpec{
	{ID: "friendster-sim", SNAPName: "Friendster", Directed: false, PaperN: 65_600_000, PaperM: 1_800_000_000, PaperDiam: 32},
	{ID: "orkut-sim", SNAPName: "Orkut social network", Directed: false, PaperN: 3_100_000, PaperM: 117_000_000, PaperDiam: 9},
	{ID: "livejournal-sim", SNAPName: "LiveJournal membership", Directed: true, PaperN: 4_800_000, PaperM: 70_000_000, PaperDiam: 16},
	{ID: "patents-sim", SNAPName: "Patent citation graph", Directed: true, PaperN: 3_800_000, PaperM: 16_500_000, PaperDiam: 22},
}

// Standin generates the named stand-in graph. scale multiplies the default
// sizes (scale 1 keeps single-process experiments in seconds; larger scales
// are for bigger runs). Unknown names yield an error.
func Standin(id string, scale int, seed int64) (*Graph, error) {
	if scale < 1 {
		scale = 1
	}
	switch id {
	case "friendster-sim":
		// Large, moderately dense, undirected, larger diameter than the
		// other social graphs: R-MAT with mild skew plus chain "tendrils"
		// hanging off the core, the structure that gives Friendster its
		// d=32 against Orkut's d=9.
		g := RMAT(RMATOptions{Scale: 13 + log2(scale), EdgeFactor: 14, A: 0.45, B: 0.22, C: 0.22, Seed: seed})
		attachTails(g, 4, 5, seed)
		g.Name = id
		return g, nil
	case "orkut-sim":
		// Dense, undirected, very low diameter: heavy R-MAT.
		g := RMAT(RMATOptions{Scale: 12 + log2(scale), EdgeFactor: 19, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
		g.Name = id
		return g, nil
	case "livejournal-sim":
		// Directed, moderate density, moderate diameter.
		g := RMAT(RMATOptions{Scale: 13 + log2(scale), EdgeFactor: 7, A: 0.57, B: 0.19, C: 0.19, Directed: true, Seed: seed})
		g.Name = id
		return g, nil
	case "patents-sim":
		// Directed, sparse, high diameter: a layered citation-style DAG.
		g := layeredDAG(22, 700*scale, 4, seed)
		g.Name = id
		return g, nil
	default:
		return nil, fmt.Errorf("graph: unknown stand-in %q", id)
	}
}

// attachTails grows `count` chains of `length` fresh vertices off existing
// vertices, stretching the diameter of an otherwise small-world core
// without changing its density profile.
func attachTails(g *Graph, count, length int, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x7a115))
	next := int32(g.N)
	for c := 0; c < count; c++ {
		anchor := int32(rng.Intn(g.N))
		prev := anchor
		for l := 0; l < length; l++ {
			u, v := prev, next
			if !g.Directed && u > v {
				u, v = v, u
			}
			g.Edges = append(g.Edges, Edge{U: u, V: v, W: 1})
			prev = next
			next++
		}
	}
	g.N = int(next)
	g.Edges = dedupeEdges(g.Edges, g.Directed)
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
