package graph_test

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/testkit"
)

func TestGeneratorsValidate(t *testing.T) {
	graphs := []*graph.Graph{
		graph.RMAT(graph.DefaultRMAT(8, 8, 1)),
		graph.Uniform(200, 900, false, 2),
		graph.Uniform(200, 900, true, 3),
		testkit.Ring(50),
		testkit.Path(50),
		testkit.Star(50),
		graph.Grid2D(8, 9, 5, 4),
		testkit.CompleteBinaryTree(5),
		graph.LayeredDAG(6, 20, 3, 5),
	}
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(7, 6, 13))
	perm := make([]int32, g.N)
	inv := make([]int32, g.N)
	for i := range perm {
		perm[i] = int32((i*7 + 3) % g.N)
	}
	// ensure bijection (gcd(7, n) may not be 1; verify)
	seen := make([]bool, g.N)
	bij := true
	for _, p := range perm {
		if seen[p] {
			bij = false
			break
		}
		seen[p] = true
	}
	if !bij {
		t.Skip("7 divides n; permutation not bijective for this size")
	}
	for i, p := range perm {
		inv[p] = int32(i)
	}
	orig := append([]graph.Edge{}, g.Edges...)
	testkit.Permute(g, perm)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	testkit.Permute(g, inv)
	if len(g.Edges) != len(orig) {
		t.Fatal("permute round trip lost edges")
	}
	for i := range orig {
		if g.Edges[i] != orig[i] {
			t.Fatalf("edge %d: %v vs %v", i, g.Edges[i], orig[i])
		}
	}
}

func TestAddUniformWeights(t *testing.T) {
	g := testkit.Ring(30)
	g.AddUniformWeights(1, 100, 5)
	if !g.Weighted {
		t.Fatal("graph must be marked weighted")
	}
	for _, e := range g.Edges {
		if e.W < 1 || e.W > 100 || e.W != math.Trunc(e.W) {
			t.Fatalf("weight %v outside [1,100] or not integer", e.W)
		}
	}
}

func TestBFSDistancesAndStats(t *testing.T) {
	g := testkit.Path(10)
	adj, _ := g.OutAdjacencyLists()
	d := graph.BFSDistances(adj, 0)
	for i := 0; i < 10; i++ {
		if d[i] != int32(i) {
			t.Fatalf("path distance to %d = %d", i, d[i])
		}
	}
	st := graph.ComputeStats(g, 100, 1)
	if st.Diameter != 9 {
		t.Fatalf("path diameter %d want 9", st.Diameter)
	}
	if st.MaxDegree != 2 || st.Reachable != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	ring := graph.ComputeStats(testkit.Ring(12), 100, 1)
	if ring.Diameter != 6 {
		t.Fatalf("ring diameter %d want 6", ring.Diameter)
	}
}
