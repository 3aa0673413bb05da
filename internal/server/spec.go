package server

import (
	"fmt"

	"repro"
	"repro/internal/graph"
)

// GraphSpec describes a graph to build into the registry from one of the
// library generators. Kind selects the family; the remaining fields
// parameterize it (unused fields are ignored, except Directed, which grid
// and standin reject). There is no file kind: a client never names a path
// the server opens, and edge-list files load only through Server.LoadGraph
// (mfbc-serve -preload).
type GraphSpec struct {
	// Kind: "rmat" | "uniform" | "grid" | "standin".
	Kind string `json:"kind"`

	// rmat: 2^Scale vertices, ~EdgeFactor·2^Scale edges; Directed applies.
	Scale      int `json:"scale,omitempty"`
	EdgeFactor int `json:"edge_factor,omitempty"`

	// uniform: G(n, m); Directed applies.
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`

	// grid: Rows×Cols mesh; MaxWeight > 1 adds uniform weights in [1, MaxWeight].
	Rows      int `json:"rows,omitempty"`
	Cols      int `json:"cols,omitempty"`
	MaxWeight int `json:"max_weight,omitempty"`

	// standin: ID names a Table 2 stand-in ("orkut-sim", ...), Scale scales it.
	ID string `json:"id,omitempty"`

	Directed bool  `json:"directed,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	// Weights > 1 overlays uniform integer weights in [1, Weights] on the
	// generated graph.
	Weights int `json:"weights,omitempty"`
}

// BuildGraph materializes the spec.
func BuildGraph(spec GraphSpec) (*repro.Graph, error) {
	if spec.Directed && (spec.Kind == "grid" || spec.Kind == "standin") {
		return nil, fmt.Errorf("server: directed applies to rmat and uniform graphs, not %s", spec.Kind)
	}
	var g *repro.Graph
	var err error
	switch spec.Kind {
	case "rmat":
		if spec.Scale < 1 || spec.EdgeFactor < 1 {
			return nil, fmt.Errorf("server: rmat needs scale ≥ 1 and edge_factor ≥ 1, got %d,%d", spec.Scale, spec.EdgeFactor)
		}
		opt := graph.DefaultRMAT(spec.Scale, spec.EdgeFactor, spec.Seed)
		opt.Directed = spec.Directed
		g = graph.RMAT(opt)
	case "uniform":
		if spec.N < 2 || spec.M < 1 {
			return nil, fmt.Errorf("server: uniform needs n ≥ 2 and m ≥ 1, got %d,%d", spec.N, spec.M)
		}
		g = repro.UniformGraph(spec.N, spec.M, spec.Directed, spec.Seed)
	case "grid":
		if spec.Rows < 1 || spec.Cols < 1 {
			return nil, fmt.Errorf("server: grid needs rows ≥ 1 and cols ≥ 1, got %d,%d", spec.Rows, spec.Cols)
		}
		g = repro.GridGraph(spec.Rows, spec.Cols, spec.MaxWeight, spec.Seed)
	case "standin":
		g, err = repro.StandinGraph(spec.ID, spec.Scale, spec.Seed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("server: unknown graph kind %q", spec.Kind)
	}
	if spec.Weights > 1 {
		g.AddUniformWeights(1, spec.Weights, spec.Seed+1)
	}
	return g, nil
}
