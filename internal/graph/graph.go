// Package graph provides the graph representation, synthetic generators
// (R-MAT, Erdős–Rényi uniform, and structured families), scaled-down
// stand-ins for the SNAP graphs of the paper's Table 2, edge-list I/O, and
// the graph statistics the paper reports (diameter and 90-percentile
// effective diameter).
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/algebra"
	"repro/internal/sparse"
)

// Edge is one edge with endpoints U → V and weight W. For undirected graphs
// each edge is stored once with U ≤ V.
type Edge struct {
	U, V int32
	W    float64
}

// Graph is a simple graph (no self-loops, no multi-edges). Unweighted graphs
// carry weight 1 on every edge.
type Graph struct {
	Name     string
	N        int
	Directed bool
	Weighted bool
	Edges    []Edge
}

// M returns the number of edges (each undirected edge counted once).
func (g *Graph) M() int { return len(g.Edges) }

// AvgDegree returns m/n for directed graphs and 2m/n for undirected ones.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	m := float64(len(g.Edges))
	if !g.Directed {
		m *= 2
	}
	return m / float64(g.N)
}

// Validate checks structural invariants: coordinates in range, strictly
// positive weights, no self-loops, canonical undirected orientation, and no
// edge listed twice — Adjacency would keep the lightest copy and
// OutAdjacencyLists all of them, so the engines would disagree. Every
// generator, ReadEdgeList and Apply emit strictly increasing (U,V), which
// one pass confirms; only an unsorted list pays for a set.
func (g *Graph) Validate() error {
	sorted := true
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("graph %q: edge (%d,%d) outside n=%d", g.Name, e.U, e.V, g.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph %q: self-loop at %d", g.Name, e.U)
		}
		if !(e.W > 0) || math.IsInf(e.W, 1) {
			return fmt.Errorf("graph %q: edge (%d,%d) has nonpositive or infinite weight %v", g.Name, e.U, e.V, e.W)
		}
		if !g.Directed && e.U > e.V {
			return fmt.Errorf("graph %q: undirected edge (%d,%d) not canonically oriented", g.Name, e.U, e.V)
		}
		if i > 0 {
			p := g.Edges[i-1]
			sorted = sorted && (p.U < e.U || p.U == e.U && p.V < e.V)
		}
	}
	if sorted {
		return nil
	}
	seen := make(map[[2]int32]struct{}, len(g.Edges))
	for _, e := range g.Edges {
		key := [2]int32{e.U, e.V}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("graph %q: duplicate edge (%d,%d)", g.Name, e.U, e.V)
		}
		seen[key] = struct{}{}
	}
	return nil
}

// Adjacency builds the sparse adjacency matrix A with A(i,j) = w(i,j) on the
// tropical structure (absent entries represent ∞). Undirected edges appear
// in both orientations.
func (g *Graph) Adjacency() *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](g.N, g.N)
	for _, e := range g.Edges {
		coo.Append(e.U, e.V, e.W)
		if !g.Directed {
			coo.Append(e.V, e.U, e.W)
		}
	}
	return sparse.FromCOO(coo, algebra.TropicalMonoid())
}

// AdjacencyNNZ returns the number of stored adjacency nonzeros (2m for
// undirected graphs), the per-traversal edge count used in TEPS rates.
func (g *Graph) AdjacencyNNZ() int {
	if g.Directed {
		return len(g.Edges)
	}
	return 2 * len(g.Edges)
}

// OutAdjacencyLists returns out-neighbour lists (index, weight) for
// traversal-based baselines.
func (g *Graph) OutAdjacencyLists() ([][]int32, [][]float64) {
	idx := make([][]int32, g.N)
	wts := make([][]float64, g.N)
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		if !g.Directed {
			deg[e.V]++
		}
	}
	for i := range idx {
		idx[i] = make([]int32, 0, deg[i])
		wts[i] = make([]float64, 0, deg[i])
	}
	for _, e := range g.Edges {
		idx[e.U] = append(idx[e.U], e.V)
		wts[e.U] = append(wts[e.U], e.W)
		if !g.Directed {
			idx[e.V] = append(idx[e.V], e.U)
			wts[e.V] = append(wts[e.V], e.W)
		}
	}
	return idx, wts
}

// dedupeEdges canonicalizes an edge multiset: undirected edges are oriented
// U ≤ V, self-loops dropped, duplicates merged keeping the minimum weight.
func dedupeEdges(edges []Edge, directed bool) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if !directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		if out[a].V != out[b].V {
			return out[a].V < out[b].V
		}
		return out[a].W < out[b].W
	})
	ded := out[:0]
	for i, e := range out {
		if i > 0 && e.U == ded[len(ded)-1].U && e.V == ded[len(ded)-1].V {
			continue
		}
		ded = append(ded, e)
	}
	return ded
}

// RemoveDisconnected drops vertices with no incident edges and relabels the
// rest contiguously, as the paper's preprocessing does.
func (g *Graph) RemoveDisconnected() {
	seen := make([]bool, g.N)
	for _, e := range g.Edges {
		seen[e.U] = true
		seen[e.V] = true
	}
	remap := make([]int32, g.N)
	next := int32(0)
	for i, s := range seen {
		if s {
			remap[i] = next
			next++
		} else {
			remap[i] = -1
		}
	}
	for i := range g.Edges {
		g.Edges[i].U = remap[g.Edges[i].U]
		g.Edges[i].V = remap[g.Edges[i].V]
	}
	g.N = int(next)
}

// Permute relabels vertices by the permutation perm (new = perm[old]),
// re-canonicalizing edge orientation. Randomized relabeling is what makes
// the oblivious block distributions of §5.2 load-balanced.
func (g *Graph) Permute(perm []int32) {
	for i := range g.Edges {
		g.Edges[i].U = perm[g.Edges[i].U]
		g.Edges[i].V = perm[g.Edges[i].V]
		if !g.Directed && g.Edges[i].U > g.Edges[i].V {
			g.Edges[i].U, g.Edges[i].V = g.Edges[i].V, g.Edges[i].U
		}
	}
	sort.Slice(g.Edges, func(a, b int) bool {
		if g.Edges[a].U != g.Edges[b].U {
			return g.Edges[a].U < g.Edges[b].U
		}
		return g.Edges[a].V < g.Edges[b].V
	})
}

// AddUniformWeights assigns integer weights drawn uniformly from [lo, hi]
// (the paper's weighted R-MAT setup uses [1, 100]).
func (g *Graph) AddUniformWeights(lo, hi int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Edges {
		g.Edges[i].W = float64(lo + rng.Intn(hi-lo+1))
	}
	g.Weighted = true
}

// RMATOptions parameterizes the recursive-matrix generator of Chakrabarti
// et al., the power-law family used in the paper's Figure 1(c).
type RMATOptions struct {
	Scale        int     // n = 2^Scale before disconnected-vertex removal
	EdgeFactor   int     // E: average degree target, m = E * n sampled edges
	A, B, C      float64 // quadrant probabilities (D = 1-A-B-C)
	Directed     bool
	Seed         int64
	KeepIsolated bool // if false, disconnected vertices are removed (paper's preprocessing)
}

// DefaultRMAT returns the Graph500 parameterization (0.57, 0.19, 0.19).
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATOptions {
	return RMATOptions{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates an R-MAT graph.
func RMAT(opt RMATOptions) *Graph {
	n := 1 << opt.Scale
	rng := rand.New(rand.NewSource(opt.Seed))
	m := n * opt.EdgeFactor
	edges := make([]Edge, 0, m)
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < opt.Scale; bit++ {
			r := rng.Float64()
			switch {
			case r < opt.A:
				// upper-left: no bits set
			case r < opt.A+opt.B:
				v |= 1 << bit
			case r < opt.A+opt.B+opt.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, Edge{U: int32(u), V: int32(v), W: 1})
	}
	g := &Graph{
		Name:     fmt.Sprintf("rmat-s%d-e%d", opt.Scale, opt.EdgeFactor),
		N:        n,
		Directed: opt.Directed,
		Edges:    dedupeEdges(edges, opt.Directed),
	}
	if !opt.KeepIsolated {
		g.RemoveDisconnected()
	}
	return g
}

// Uniform generates an Erdős–Rényi style G(n, m) uniform random graph with
// exactly m distinct edges (the paper's weak-scaling workload).
func Uniform(n, m int, directed bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	maxM := int64(n) * int64(n-1)
	if !directed {
		maxM /= 2
	}
	if int64(m) > maxM {
		m = int(maxM)
	}
	seen := make(map[int64]struct{}, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if !directed && u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	g := &Graph{
		Name:     fmt.Sprintf("uniform-n%d-m%d", n, m),
		N:        n,
		Directed: directed,
		Edges:    dedupeEdges(edges, directed),
	}
	return g
}

// Ring generates an undirected cycle, a high-diameter stress case.
func Ring(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("ring-%d", n), N: n}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		u, v := int32(i), int32(j)
		if u > v {
			u, v = v, u
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v, W: 1})
	}
	g.Edges = dedupeEdges(g.Edges, false)
	return g
}

// Path generates an undirected path graph.
func Path(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("path-%d", n), N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	return g
}

// Star generates a star with the hub at vertex 0.
func Star(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("star-%d", n), N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, Edge{U: 0, V: int32(i), W: 1})
	}
	return g
}

// Grid2D generates an r×c undirected mesh, optionally with uniform random
// integer weights in [1, maxW] (a road-network-like workload).
func Grid2D(r, c int, maxW int, seed int64) *Graph {
	g := &Graph{Name: fmt.Sprintf("grid-%dx%d", r, c), N: r * c, Weighted: maxW > 1}
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 {
		if maxW <= 1 {
			return 1
		}
		return float64(1 + rng.Intn(maxW))
	}
	at := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.Edges = append(g.Edges, Edge{U: at(i, j), V: at(i, j+1), W: w()})
			}
			if i+1 < r {
				g.Edges = append(g.Edges, Edge{U: at(i, j), V: at(i+1, j), W: w()})
			}
		}
	}
	return g
}

// CompleteBinaryTree generates a rooted complete binary tree as an
// undirected graph; its BC scores have a closed form used by invariant
// tests.
func CompleteBinaryTree(levels int) *Graph {
	n := (1 << levels) - 1
	g := &Graph{Name: fmt.Sprintf("btree-%d", levels), N: n}
	for i := 1; i < n; i++ {
		p := int32((i - 1) / 2)
		g.Edges = append(g.Edges, Edge{U: p, V: int32(i), W: 1})
	}
	return g
}

// LayeredDAG generates a directed graph of `layers` layers of `width`
// vertices with forward edges chosen randomly, plus a chain through layer
// heads guaranteeing a large diameter — a citation-network-like profile.
func LayeredDAG(layers, width, outDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := layers * width
	g := &Graph{Name: fmt.Sprintf("layered-%dx%d", layers, width), N: n, Directed: true}
	at := func(l, i int) int32 { return int32(l*width + i) }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			g.Edges = append(g.Edges, Edge{U: at(l, i), V: at(l+1, rng.Intn(width)), W: 1})
			for d := 1; d < outDeg; d++ {
				tgt := l + 1 + rng.Intn(min(3, layers-l-1))
				g.Edges = append(g.Edges, Edge{U: at(l, i), V: at(tgt, rng.Intn(width)), W: 1})
			}
		}
	}
	g.Edges = dedupeEdges(g.Edges, true)
	return g
}
