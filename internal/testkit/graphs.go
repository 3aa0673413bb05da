// Package testkit holds the fixtures and reference implementations that
// the tests of several packages share: small structured graphs, block
// distributions, the k-way merge oracle, a full-matrix gather and the
// metrics-text parser. No production code calls them, and only _test.go
// files import this package (make deps-check enforces it).
package testkit

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Ring generates an undirected cycle, a high-diameter stress case. Its
// edges are canonical: oriented U < V and sorted, with no self-loop at
// n = 1 and one edge at n = 2.
func Ring(n int) *graph.Graph {
	g := &graph.Graph{Name: fmt.Sprintf("ring-%d", n), N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	if n > 2 {
		g.Edges = append(g.Edges, graph.Edge{U: 0, V: int32(n - 1), W: 1})
	}
	sortEdges(g.Edges)
	return g
}

// Path generates an undirected path graph.
func Path(n int) *graph.Graph {
	g := &graph.Graph{Name: fmt.Sprintf("path-%d", n), N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	return g
}

// Star generates a star with the hub at vertex 0.
func Star(n int) *graph.Graph {
	g := &graph.Graph{Name: fmt.Sprintf("star-%d", n), N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: 0, V: int32(i), W: 1})
	}
	return g
}

// CompleteBinaryTree generates a rooted complete binary tree as an
// undirected graph; its BC scores have a closed form used by invariant
// tests.
func CompleteBinaryTree(levels int) *graph.Graph {
	n := (1 << levels) - 1
	g := &graph.Graph{Name: fmt.Sprintf("btree-%d", levels), N: n}
	for i := 1; i < n; i++ {
		p := int32((i - 1) / 2)
		g.Edges = append(g.Edges, graph.Edge{U: p, V: int32(i), W: 1})
	}
	return g
}

// Permute relabels g's vertices by the permutation perm (new = perm[old]),
// re-canonicalizing edge orientation. Randomized relabeling is what makes
// the oblivious block distributions of §5.2 load-balanced.
func Permute(g *graph.Graph, perm []int32) {
	for i := range g.Edges {
		g.Edges[i].U = perm[g.Edges[i].U]
		g.Edges[i].V = perm[g.Edges[i].V]
		if !g.Directed && g.Edges[i].U > g.Edges[i].V {
			g.Edges[i].U, g.Edges[i].V = g.Edges[i].V, g.Edges[i].U
		}
	}
	sortEdges(g.Edges)
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(a, b int) bool {
		if es[a].U != es[b].U {
			return es[a].U < es[b].U
		}
		return es[a].V < es[b].V
	})
}
