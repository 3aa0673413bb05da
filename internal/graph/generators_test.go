package graph_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/sparse"
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

// TestUndirectedAdjacencyIsItsTranspose: the kernels take an undirected
// graph's adjacency as its own transpose instead of building Aᵀ, which
// holds only if every undirected generator yields a matrix that transposes
// to itself, structure and weights alike, bit for bit.
func TestUndirectedAdjacencyIsItsTranspose(t *testing.T) {
	weighted := graph.RMAT(graph.DefaultRMAT(8, 8, 5))
	weighted.AddUniformWeights(1, 100, 6)
	graphs := []*graph.Graph{
		graph.RMAT(graph.DefaultRMAT(8, 8, 1)),
		weighted,
		graph.Uniform(200, 900, false, 2),
		graph.Grid2D(8, 9, 5, 4),
		testkit.Ring(50),
		testkit.Path(50),
		testkit.Star(50),
		testkit.CompleteBinaryTree(5),
	}
	for _, spec := range graph.Standins {
		if !spec.Directed {
			g, err := graph.Standin(spec.ID, 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	for _, g := range graphs {
		if g.Directed {
			t.Fatalf("%s: want an undirected graph", g.Name)
		}
		a := g.Adjacency()
		if at := sparse.Transpose(a); !reflect.DeepEqual(at, a) {
			t.Errorf("%s: Transpose(Adjacency()) differs from Adjacency()", g.Name)
		}
	}
}

// adjacencyByCOO is the route Adjacency replaced and its reference: every
// edge appended as a coordinate (both orientations when undirected), then
// sparse.FromCOO's bucketing, sort and lightest-copy merge.
func adjacencyByCOO(g *graph.Graph) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](g.N, g.N)
	for _, e := range g.Edges {
		coo.Append(e.U, e.V, e.W)
		if !g.Directed {
			coo.Append(e.V, e.U, e.W)
		}
	}
	return sparse.FromCOO(coo, algebra.TropicalMonoid())
}

// TestAdjacencyMatchesCOO: Adjacency fills its rows straight from the edge
// list and sorts only a row out of order. On every generator, directed and
// undirected, weighted, and on lists that are unsorted, list an edge twice
// or carry an ∞ weight, it equals the COO route under reflect.DeepEqual.
func TestAdjacencyMatchesCOO(t *testing.T) {
	weighted := graph.RMAT(graph.DefaultRMAT(8, 8, 5))
	weighted.AddUniformWeights(1, 100, 6)
	directed := graph.DefaultRMAT(8, 8, 3)
	directed.Directed = true
	graphs := []*graph.Graph{
		graph.RMAT(graph.DefaultRMAT(8, 8, 1)),
		graph.RMAT(directed),
		weighted,
		graph.Uniform(200, 900, false, 2),
		graph.Uniform(200, 900, true, 3),
		graph.Grid2D(8, 9, 5, 4),
		graph.Grid2D(1, 1, 1, 1),
		graph.LayeredDAG(6, 20, 3, 5),
		testkit.Ring(50),
		testkit.Path(50),
		testkit.Star(50),
		testkit.CompleteBinaryTree(5),
		{Name: "empty"},
		{Name: "edgeless", N: 5},
	}
	for _, spec := range graph.Standins {
		g, err := graph.Standin(spec.ID, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	rng := rand.New(rand.NewSource(9))
	for _, base := range []*graph.Graph{weighted, graph.Uniform(120, 500, true, 8)} {
		shuffled := base.Clone()
		shuffled.Name += "-shuffled"
		rng.Shuffle(len(shuffled.Edges), func(x, y int) {
			shuffled.Edges[x], shuffled.Edges[y] = shuffled.Edges[y], shuffled.Edges[x]
		})
		graphs = append(graphs, shuffled)
	}
	graphs = append(graphs,
		&graph.Graph{Name: "duplicate", N: 4, Weighted: true, Edges: []graph.Edge{
			{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 1}, {U: 0, V: 1, W: 2}, {U: 1, V: 3, W: 4}, {U: 0, V: 1, W: 3}}},
		&graph.Graph{Name: "duplicate-directed", N: 3, Directed: true, Weighted: true, Edges: []graph.Edge{
			{U: 2, V: 0, W: 7}, {U: 0, V: 1, W: 1}, {U: 2, V: 0, W: 6}, {U: 1, V: 0, W: 2}}},
		&graph.Graph{Name: "infinite", N: 3, Weighted: true, Edges: []graph.Edge{
			{U: 0, V: 1, W: math.Inf(1)}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: math.Inf(1)}, {U: 1, V: 2, W: 2}}},
	)
	for _, g := range graphs {
		if got, want := g.Adjacency(), adjacencyByCOO(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Adjacency differs from the COO route:\n got %+v\nwant %+v", g.Name, got, want)
		}
	}
}

// TestAdjacencyAllocatesOnlyItsArrays: Adjacency makes the matrix header
// and its three arrays, each sized exactly, and no scratch of any size —
// no COO, no bucket boundaries beside the row pointers.
func TestAdjacencyAllocatesOnlyItsArrays(t *testing.T) {
	g := graph.Grid2D(64, 64, 30, 1)
	if allocs := testing.AllocsPerRun(4, func() { g.Adjacency() }); allocs != 4 {
		t.Errorf("Adjacency makes %v allocations, want 4 (header, RowPtr, ColIdx, Val)", allocs)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := g.Adjacency()
	runtime.ReadMemStats(&after)
	// A large array is rounded up to whole 8 KiB pages.
	arrays := uint64(8*len(a.RowPtr) + 4*len(a.ColIdx) + 8*len(a.Val))
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > arrays+3*8192+128 {
		t.Errorf("Adjacency allocates %d bytes, its arrays take %d", bytes, arrays)
	}
}
