package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomTree builds a uniformly random labelled tree (attach each new
// vertex to a uniformly random earlier one).
func randomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{Name: "randtree", N: n}
	for v := 1; v < n; v++ {
		u := int32(rng.Intn(v))
		w := int32(v)
		if u > w {
			u, w = w, u
		}
		g.Edges = append(g.Edges, graph.Edge{U: u, V: w, W: 1})
	}
	return g
}

// TestTreeSumIdentity: on a tree every pair (s,t) has exactly one shortest
// path, so Σ_v λ(v) = Σ_{s≠t} (hops(s,t) − 1): each ordered pair
// contributes one unit per interior vertex.
func TestTreeSumIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomTree(60, seed)
		res, err := MFBC(g, nil, Options{Batch: 13})
		if err != nil {
			t.Fatal(err)
		}
		var sumBC float64
		for _, x := range res.BC {
			sumBC += x
		}
		adj, _ := g.OutAdjacencyLists()
		var want float64
		for s := 0; s < g.N; s++ {
			dist := graph.BFSDistances(adj, int32(s))
			for _, d := range dist {
				if d > 1 {
					want += float64(d - 1)
				}
			}
		}
		if !almostEqual(sumBC, want) {
			t.Fatalf("seed %d: Σλ = %g, path-length identity says %g", seed, sumBC, want)
		}
	}
}

// TestTreeLeavesZero: leaves of a tree lie on no shortest path interior.
func TestTreeLeavesZero(t *testing.T) {
	g := randomTree(80, 9)
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	res, err := MFBC(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range deg {
		if d == 1 && res.BC[v] != 0 {
			t.Fatalf("leaf %d has BC %g", v, res.BC[v])
		}
	}
}

// TestWeightIndifferenceOnTrees: on a tree the shortest-path structure is
// weight-independent (paths are unique), so BC must not change when random
// positive weights are added.
func TestWeightIndifferenceOnTrees(t *testing.T) {
	g := randomTree(50, 11)
	plain, err := MFBC(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.AddUniformWeights(1, 50, 13)
	weighted, err := MFBC(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.BC {
		if !almostEqual(plain.BC[v], weighted.BC[v]) {
			t.Fatalf("weights changed tree BC at %d: %g vs %g", v, plain.BC[v], weighted.BC[v])
		}
	}
}

// TestScaledWeightsInvariance: multiplying all weights by a constant leaves
// BC unchanged on any graph.
func TestScaledWeightsInvariance(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 17))
	g.AddUniformWeights(1, 20, 3)
	base, err := MFBC(g, nil, Options{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Edges {
		g.Edges[i].W *= 3.5
	}
	scaled, err := MFBC(g, nil, Options{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.BC {
		if !almostEqual(base.BC[v], scaled.BC[v]) {
			t.Fatalf("weight scaling changed BC at %d", v)
		}
	}
}

// TestSymmetryOfVertexTransitiveGraphs: every vertex of a ring has equal
// centrality.
func TestSymmetryOfVertexTransitiveGraphs(t *testing.T) {
	g := graph.Ring(17)
	res, err := MFBC(g, nil, Options{Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if !almostEqual(res.BC[v], res.BC[0]) {
			t.Fatalf("ring BC not uniform: BC[%d]=%g BC[0]=%g", v, res.BC[v], res.BC[0])
		}
	}
}

// TestIterationCountsMatchDiameter: unweighted MFBF takes at most
// diameter+1 relaxation rounds per batch; weighted runs take at least as
// many as unweighted (the paper's §7.2 slowdown mechanism).
func TestIterationCountsMatchDiameter(t *testing.T) {
	g := graph.Path(20) // diameter 19
	a := g.Adjacency()
	sources := []int32{0}
	_, _, iters := MFBF(a, sources)
	if iters != 19 {
		t.Fatalf("path MFBF took %d rounds, want 19", iters)
	}
	rmat := graph.RMAT(graph.DefaultRMAT(7, 8, 21))
	au := rmat.Adjacency()
	srcs := []int32{0, 1, 2, 3}
	_, _, unweightedIters := MFBF(au, srcs)
	rmat.AddUniformWeights(1, 100, 5)
	aw := rmat.Adjacency()
	_, _, weightedIters := MFBF(aw, srcs)
	if weightedIters < unweightedIters {
		t.Fatalf("weighted MFBF took fewer rounds (%d) than unweighted (%d)", weightedIters, unweightedIters)
	}
}
