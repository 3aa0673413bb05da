// Package repro is the public API of this reproduction of
// "Scaling Betweenness Centrality using Communication-Efficient Sparse
// Matrix Multiplication" (Solomonik, Besta, Vella, Hoefler — SC 2017).
//
// It exposes the Maximal Frontier Betweenness Centrality (MFBC) algorithm —
// sequential and distributed over a simulated machine with an α–β–γ
// communication cost model — together with the comparison engines of the
// paper's evaluation (textbook Brandes and a CombBLAS-style batched
// algebraic BC), graph generators, and the experiment harness that
// regenerates every table and figure of the evaluation section.
//
// Quick start:
//
//	g := repro.RMATGraph(10, 8, 42)
//	res, err := repro.Compute(g, repro.Options{Engine: repro.EngineMFBC})
//	// res.BC[v] is the betweenness centrality of vertex v.
//
// Distributed execution with communication accounting:
//
//	res, err := repro.Compute(g, repro.Options{
//		Engine: repro.EngineMFBC,
//		Procs:  16,
//		Batch:  64,
//	})
//	// res.Comm reports critical-path bytes/messages and modeled seconds.
package repro

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
)

func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Graph re-exports the graph type used throughout the library.
type Graph = graph.Graph

// Edge re-exports the edge type.
type Edge = graph.Edge

// Engine selects a betweenness-centrality implementation.
type Engine string

const (
	// EngineMFBC is the paper's contribution: Bellman-Ford-based maximal
	// frontier BC over generalized sparse matrix products. Handles weighted
	// and unweighted, directed and undirected graphs.
	EngineMFBC Engine = "mfbc"
	// EngineBrandes is the textbook sequential algorithm (BFS or Dijkstra),
	// the correctness oracle. Ignores Procs.
	EngineBrandes Engine = "brandes"
	// EngineCombBLAS is the CombBLAS-style batched algebraic BC the paper
	// compares against: 2D-only decomposition, unweighted graphs only.
	EngineCombBLAS Engine = "combblas"
)

// Options configures Compute.
type Options struct {
	Engine Engine // default EngineMFBC
	// Procs simulates a distributed machine with this many processors
	// (default 1). At Procs ≤ 1 MFBC runs the fast sequential path — for
	// every source list, explicit or not — and the result carries no Plan
	// and a zero Comm. The machine searches its own decomposition per
	// multiplication; the paper's forced-plan and 1D/2D/3D ablations are
	// core.DistOptions' (cmd/mfbc-bench runs them).
	Procs int
	// Batch is n_b, the number of sources per sweep (Algorithm 3's
	// time/memory trade-off). ≤0 selects min(n, 128).
	Batch int
	// Workers is the shared-memory parallelism of the local sparse
	// kernels on each (simulated) processor: 0 selects all host cores —
	// GOMAXPROCS on the sequential path, divided fairly across ranks on
	// distributed runs (they execute concurrently) — and 1 forces the
	// sequential kernels. Scores are identical for every worker count;
	// only wall time changes.
	Workers int
	// Sources restricts the computation to these source vertices; BC then
	// holds the partial sums Σ_{s∈Sources} δ(s,·). Every engine sweeps the
	// list in Batch-sized chunks, so memory stays bounded by one batch
	// however long the list is.
	Sources []int32
	// Normalize divides scores by (n-1)(n-2), the usual [0,1] scaling.
	Normalize bool
}

// CommReport summarizes the simulated communication of a distributed run:
// the one comm summary, shared with the streaming engine's reports.
type CommReport = dynamic.CommSummary

// Result carries centrality scores and run metadata.
type Result struct {
	BC         []float64
	Engine     Engine
	Procs      int
	Plan       string // decomposition used (distributed runs)
	Iterations int    // frontier relaxation rounds (MFBC) or BFS levels (CombBLAS)
	Comm       CommReport
	// ErrBound is the 95% Hoeffding half-width of an ApproximateBC estimate
	// (see sampleErrBound), in the units of BC; 0 for exact scores.
	ErrBound float64
}

// errNilGraph is what every entry point that takes a *Graph returns for nil.
var errNilGraph = errors.New("repro: nil graph")

// Compute runs betweenness centrality on g with the selected engine.
func Compute(g *Graph, opt Options) (*Result, error) {
	if g == nil {
		return nil, errNilGraph
	}
	if opt.Engine == "" {
		opt.Engine = EngineMFBC
	}
	procs := opt.Procs
	if procs < 1 {
		procs = 1
	}
	if err := core.CheckSources(g.N, opt.Sources); err != nil {
		return nil, err
	}
	res := &Result{Engine: opt.Engine, Procs: procs}
	switch opt.Engine {
	case EngineBrandes:
		// The traversal has no checks of its own; the other engines validate.
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		if opt.Sources != nil {
			res.BC = baseline.BrandesSources(g, opt.Sources)
		} else {
			res.BC = baseline.Brandes(g)
		}
	case EngineMFBC:
		if procs == 1 {
			r, err := core.MFBC(g, opt.Sources, core.Options{Batch: opt.Batch, Workers: opt.Workers})
			if err != nil {
				return nil, err
			}
			res.BC = r.BC
			res.Iterations = r.Iterations
		} else {
			r, err := core.MFBCDistributed(g, core.DistOptions{
				Procs: procs, Workers: opt.Workers, Batch: opt.Batch, Sources: opt.Sources,
			})
			if err != nil {
				return nil, err
			}
			res.BC = r.BC
			res.Plan = r.Plan.String()
			res.Iterations = r.Iterations
			res.Comm = dynamic.Summarize(r.Stats)
		}
	case EngineCombBLAS:
		r, err := baseline.CombBLASStyleDistributed(g, baseline.DistCombBLASOptions{
			Procs: procs, Batch: opt.Batch, Sources: opt.Sources,
		})
		if err != nil {
			return nil, err
		}
		res.BC = r.BC
		res.Plan = r.Plan.String()
		res.Iterations = r.Levels
		res.Comm = dynamic.Summarize(r.Stats)
	default:
		return nil, fmt.Errorf("repro: unknown engine %q", opt.Engine)
	}
	if opt.Normalize && g.N > 2 {
		scale := normScale(g.N)
		for i := range res.BC {
			res.BC[i] *= scale
		}
	}
	return res, nil
}

// normScale is Normalize's factor 1/((n−1)(n−2)).
func normScale(n int) float64 { return 1 / (float64(n-1) * float64(n-2)) }

// topkHeap is a min-heap of (vertex, score) pairs ordered by "worse first":
// lower score on top, ties broken by higher vertex index, so the root is
// always the candidate to displace.
type topkHeap struct {
	v  []int
	bc []float64
}

func (h *topkHeap) Len() int { return len(h.v) }
func (h *topkHeap) Less(i, j int) bool {
	// Exact tie detection is the point: ties fall through to the vertex
	// index so the heap order is a deterministic total order.
	if h.bc[i] != h.bc[j] { //lint:allow floateq exact tie-break of a deterministic total order
		return h.bc[i] < h.bc[j]
	}
	return h.v[i] > h.v[j]
}
func (h *topkHeap) Swap(i, j int) {
	h.v[i], h.v[j] = h.v[j], h.v[i]
	h.bc[i], h.bc[j] = h.bc[j], h.bc[i]
}
func (h *topkHeap) Push(x any) { panic("unused") }
func (h *topkHeap) Pop() any {
	n := len(h.v) - 1
	h.v = h.v[:n]
	h.bc = h.bc[:n]
	return nil
}

// TopK returns the indices of the k highest-scoring vertices, descending,
// ties broken by lower vertex index. Heap-based partial selection:
// O(n log k) time and O(k) extra space.
func TopK(bc []float64, k int) []int {
	if k > len(bc) {
		k = len(bc)
	}
	if k <= 0 {
		return []int{}
	}
	h := &topkHeap{v: make([]int, 0, k), bc: make([]float64, 0, k)}
	for i, x := range bc {
		if len(h.v) < k {
			h.v = append(h.v, i)
			h.bc = append(h.bc, x)
			if len(h.v) == k {
				heap.Init(h)
			}
			continue
		}
		// Keep i only if it beats the current worst: higher score, or equal
		// score with lower index.
		//lint:allow floateq exact tie-break of a deterministic total order
		if x > h.bc[0] || (x == h.bc[0] && i < h.v[0]) {
			h.v[0], h.bc[0] = i, x
			heap.Fix(h, 0)
		}
	}
	out := make([]int, len(h.v))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.v[0]
		heap.Pop(h)
	}
	return out
}

// Fingerprint returns a structural hash of the graph (vertex count,
// orientation, weights, and the full edge list). Two graphs with the same
// fingerprint hold the same topology regardless of their Name; any edit to
// the edge set changes it. The server layer uses it as the graph version in
// result-cache keys.
func Fingerprint(g *Graph) uint64 { return graph.Fingerprint(g) }

// ApproximateBC estimates betweenness centrality from a random sample of
// `samples` source vertices, scaling each vertex's accumulated dependency
// by n/samples (the estimator of Bader et al. cited in the paper's
// introduction). It sweeps only the sampled sources on whichever path
// Compute routes opt to, so the cost is samples/n of the exact computation.
// The result's ErrBound is the estimate's 95% half-width per vertex (0 when
// samples ≥ n, where the answer is exact), normalized with the scores.
func ApproximateBC(g *Graph, samples int, seed int64, opt Options) (*Result, error) {
	if samples < 1 {
		return nil, fmt.Errorf("repro: need at least one sample source")
	}
	if g == nil {
		return nil, errNilGraph
	}
	if samples >= g.N {
		return Compute(g, opt)
	}
	rng := newPerm(g.N, seed)
	sources := make([]int32, samples)
	for i := range sources {
		sources[i] = int32(rng[i])
	}
	opt.Sources = sources
	res, err := Compute(g, opt)
	if err != nil {
		return nil, err
	}
	scale := float64(g.N) / float64(samples)
	for v := range res.BC {
		res.BC[v] *= scale
	}
	res.ErrBound = sampleErrBound(g.N, samples)
	if opt.Normalize && g.N > 2 {
		res.ErrBound *= normScale(g.N)
	}
	return res, nil
}

// sampleErrBound is the Hoeffding-style 95% half-width of the Bader-style
// estimator with k uniform source samples on n vertices: each per-source
// dependency contribution lies in [0, n−2], so the scaled estimate
// n·mean(X) deviates from the exact score by at most
// n·(n−2)·sqrt(ln(2/0.05)/(2k)) per vertex with probability ≥ 95%. Loose
// (it ignores variance), but honest and monotone in the budget.
func sampleErrBound(n, k int) float64 {
	if k <= 0 || n < 3 {
		return 0
	}
	return float64(n) * float64(n-2) * math.Sqrt(math.Log(2/0.05)/(2*float64(k)))
}

// newPerm returns a seeded random permutation of 0..n-1.
func newPerm(n int, seed int64) []int {
	rng := randNew(seed)
	return rng.Perm(n)
}

// RMATGraph generates an R-MAT power-law graph with 2^scale vertices and
// about edgeFactor·2^scale edges (Graph500 parameters), disconnected
// vertices removed.
func RMATGraph(scale, edgeFactor int, seed int64) *Graph {
	return graph.RMAT(graph.DefaultRMAT(scale, edgeFactor, seed))
}

// UniformGraph generates an Erdős–Rényi style G(n, m) graph.
func UniformGraph(n, m int, directed bool, seed int64) *Graph {
	return graph.Uniform(n, m, directed, seed)
}

// GridGraph generates an r×c mesh; maxW > 1 adds uniform integer weights in
// [1, maxW].
func GridGraph(r, c, maxW int, seed int64) *Graph {
	return graph.Grid2D(r, c, maxW, seed)
}

// StandinGraph generates one of the SNAP stand-in graphs of the paper's
// Table 2 ("friendster-sim", "orkut-sim", "livejournal-sim", "patents-sim").
func StandinGraph(id string, scale int, seed int64) (*Graph, error) {
	return graph.Standin(id, scale, seed)
}

// LoadGraph reads an edge-list file (see internal/graph.LoadFile for
// the format).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }
