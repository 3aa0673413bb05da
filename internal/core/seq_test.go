package core

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/testkit"
)

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func checkAgainstBrandes(t *testing.T, g *graph.Graph, batch int) {
	t.Helper()
	want := baseline.Brandes(g)
	got, err := MFBC(g, nil, Options{Batch: batch})
	if err != nil {
		t.Fatalf("%s: MFBC failed: %v", g.Name, err)
	}
	for v := range want {
		if !almostEqual(got.BC[v], want[v]) {
			t.Fatalf("%s (batch=%d): BC[%d] = %g, Brandes says %g", g.Name, batch, v, got.BC[v], want[v])
		}
	}
}

func TestMFBCPath(t *testing.T) {
	g := testkit.Path(10)
	checkAgainstBrandes(t, g, 0)
	// Closed form: interior vertex i of a path lies on all s<i<t pairs.
	got, _ := MFBC(g, nil, Options{})
	for i := 1; i < 9; i++ {
		want := float64(2 * i * (9 - i))
		if !almostEqual(got.BC[i], want) {
			t.Fatalf("path BC[%d] = %g, want %g", i, got.BC[i], want)
		}
	}
}

func TestMFBCStar(t *testing.T) {
	g := testkit.Star(12)
	checkAgainstBrandes(t, g, 5)
	got, _ := MFBC(g, nil, Options{})
	if want := float64(11 * 10); !almostEqual(got.BC[0], want) {
		t.Fatalf("star hub BC = %g, want %g", got.BC[0], want)
	}
	for i := 1; i < 12; i++ {
		if got.BC[i] != 0 {
			t.Fatalf("star spoke %d has BC %g, want 0", i, got.BC[i])
		}
	}
}

func TestMFBCRing(t *testing.T) {
	for _, n := range []int{4, 5, 8, 9} {
		checkAgainstBrandes(t, testkit.Ring(n), 3)
	}
}

func TestMFBCBinaryTree(t *testing.T) {
	checkAgainstBrandes(t, testkit.CompleteBinaryTree(4), 0)
}

func TestMFBCWeightedGrid(t *testing.T) {
	g := graph.Grid2D(5, 6, 9, 42)
	checkAgainstBrandes(t, g, 7)
}

func TestMFBCUnweightedGrid(t *testing.T) {
	checkAgainstBrandes(t, graph.Grid2D(6, 5, 1, 1), 0)
}

func TestMFBCRMATUndirected(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(7, 8, 7))
	checkAgainstBrandes(t, g, 32)
}

func TestMFBCRMATDirected(t *testing.T) {
	opt := graph.DefaultRMAT(7, 6, 11)
	opt.Directed = true
	g := graph.RMAT(opt)
	checkAgainstBrandes(t, g, 32)
}

func TestMFBCRMATWeighted(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 8, 13))
	g.AddUniformWeights(1, 100, 99)
	checkAgainstBrandes(t, g, 16)
}

func TestMFBCDirectedWeighted(t *testing.T) {
	opt := graph.DefaultRMAT(6, 5, 17)
	opt.Directed = true
	g := graph.RMAT(opt)
	g.AddUniformWeights(1, 10, 5)
	checkAgainstBrandes(t, g, 16)
}

func TestMFBCUniformRandom(t *testing.T) {
	g := graph.Uniform(80, 400, false, 3)
	checkAgainstBrandes(t, g, 0)
	gd := graph.Uniform(80, 500, true, 4)
	checkAgainstBrandes(t, gd, 0)
}

// TestMFBCEqualWeightTies stresses the multiplicity-tie handling: many
// equal-weight parallel routes.
func TestMFBCEqualWeightTies(t *testing.T) {
	// Layered lattice: every vertex in layer l connects to every vertex in
	// layer l+1, so multiplicities multiply and ties abound.
	layers, width := 5, 4
	g := &graph.Graph{Name: "lattice", N: layers * width}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.Edges = append(g.Edges, graph.Edge{U: int32(l*width + i), V: int32((l+1)*width + j), W: 1})
			}
		}
	}
	checkAgainstBrandes(t, g, 6)
}

// TestMFBCWeightedTies uses small integer weights so that distinct edge
// counts produce equal path weights, exercising the multi-visit frontier
// behaviour unique to weighted MFBC.
func TestMFBCWeightedTies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := graph.Uniform(30, 90, trial%2 == 0, int64(trial))
		for i := range g.Edges {
			g.Edges[i].W = float64(1 + rng.Intn(3))
		}
		g.Weighted = true
		checkAgainstBrandes(t, g, 8)
	}
}

// TestSSSPSequential holds MFBF's T — the distance and shortest-path
// multiplicity from each source, nothing at the source itself — to a
// Dijkstra oracle with path counting.
func TestSSSPSequential(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RMAT(graph.DefaultRMAT(7, 6, 3)),
		graph.Grid2D(6, 7, 9, 4),
		graph.Uniform(90, 400, true, 5),
	} {
		sources := []int32{0, 3, int32(g.N - 1)}
		tm, _, iters := MFBF(g.Adjacency(), sources)
		if iters == 0 {
			t.Fatalf("%s: no iterations recorded", g.Name)
		}
		for s, src := range sources {
			wantD, wantS := refDijkstra(g, src)
			wantD[src], wantS[src] = math.Inf(1), 0
			dist, count := make([]float64, g.N), make([]float64, g.N)
			for v := range dist {
				dist[v] = math.Inf(1)
			}
			cols, vals := tm.Row(s)
			for k, v := range cols {
				dist[v], count[v] = vals[k].W, vals[k].M
			}
			for v := range dist {
				if dist[v] != wantD[v] || count[v] != wantS[v] {
					t.Fatalf("%s: T(%d,%d) = (%g, %g), want (%g, %g)", g.Name, src, v, dist[v], count[v], wantD[v], wantS[v])
				}
			}
		}
	}
}

// refDijkstra computes reference distances and multiplicities.
func refDijkstra(g *graph.Graph, src int32) ([]float64, []float64) {
	adj, wts := g.OutAdjacencyLists()
	n := g.N
	dist := make([]float64, n)
	sigma := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	sigma[src] = 1
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if done[it.v] || it.d != dist[it.v] {
			continue
		}
		done[it.v] = true
		for k, u := range adj[it.v] {
			nd := it.d + wts[it.v][k]
			if nd < dist[u] {
				dist[u] = nd
				sigma[u] = sigma[it.v]
				heap.Push(pq, distItem{u, nd})
			} else if nd == dist[u] && !done[u] {
				sigma[u] += sigma[it.v]
			}
		}
	}
	return dist, sigma
}

type distItem struct {
	v int32
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMFBCBatchInvariance verifies Algorithm 3's batching is exact: any n_b
// partitions the same total.
func TestMFBCBatchInvariance(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 21))
	ref, err := MFBC(g, nil, Options{Batch: g.N})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 3, 7, 32} {
		got, err := MFBC(g, nil, Options{Batch: b})
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.BC {
			if !almostEqual(got.BC[v], ref.BC[v]) {
				t.Fatalf("batch=%d: BC[%d]=%g, want %g", b, v, got.BC[v], ref.BC[v])
			}
		}
	}
}

// TestMFBCPermutationEquivariance: relabeling vertices permutes scores.
func TestMFBCPermutationEquivariance(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 7, 31))
	res, err := MFBC(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int32, g.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	h := &graph.Graph{Name: "permuted", N: g.N, Directed: g.Directed, Weighted: g.Weighted}
	h.Edges = append(h.Edges, g.Edges...)
	testkit.Permute(h, perm)
	res2, err := MFBC(h, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.BC {
		if !almostEqual(res.BC[v], res2.BC[perm[v]]) {
			t.Fatalf("permutation broke equivariance at %d: %g vs %g", v, res.BC[v], res2.BC[perm[v]])
		}
	}
}

// TestMFBCRandomized is the broad randomized oracle sweep across the
// directed × weighted grid.
func TestMFBCRandomized(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		directed := trial%2 == 0
		weighted := (trial/2)%2 == 0
		n := 20 + trial*3
		m := n * (2 + trial%4)
		g := graph.Uniform(n, m, directed, int64(100+trial))
		if weighted {
			g.AddUniformWeights(1, 7, int64(trial))
		}
		checkAgainstBrandes(t, g, 1+trial%9)
	}
}

func TestMFBCDisconnected(t *testing.T) {
	// Two components; unreachable pairs contribute nothing.
	g := &graph.Graph{Name: "twocomp", N: 8}
	g.Edges = []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1},
	}
	checkAgainstBrandes(t, g, 3)
}

func TestMFBCEmptyAndTiny(t *testing.T) {
	empty := &graph.Graph{Name: "empty", N: 3}
	res, err := MFBC(empty, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.BC {
		if v != 0 {
			t.Fatal("empty graph must have zero BC")
		}
	}
	single := testkit.Path(2)
	res, err = MFBC(single, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BC[0] != 0 || res.BC[1] != 0 {
		t.Fatal("K2 must have zero BC")
	}
}

func TestMFBCRejectsBadWeights(t *testing.T) {
	g := &graph.Graph{Name: "bad", N: 2, Weighted: true}
	g.Edges = []graph.Edge{{U: 0, V: 1, W: 0}}
	if _, err := MFBC(g, nil, Options{}); err == nil {
		t.Fatal("zero-weight edge must be rejected")
	}
	g.Edges = []graph.Edge{{U: 0, V: 1, W: -2}}
	if _, err := MFBC(g, nil, Options{}); err == nil {
		t.Fatal("negative-weight edge must be rejected")
	}
}

// TestCombBLASStyleOracle sweeps every vertex through baseline.CombBLASBatch
// in batches of varying size and holds the sum against Brandes.
func TestCombBLASStyleOracle(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := graph.Uniform(40+5*trial, 160+20*trial, trial%2 == 0, int64(trial+7))
		want := baseline.Brandes(g)
		a := g.Adjacency()
		at := sparse.Transpose(a)
		got := make([]float64, g.N)
		batch := 1 + trial*5
		for lo := 0; lo < g.N; lo += batch {
			var sources []int32
			for s := lo; s < min(lo+batch, g.N); s++ {
				sources = append(sources, int32(s))
			}
			baseline.CombBLASBatch(a, at, sources, got)
		}
		for v := range want {
			if !almostEqual(got[v], want[v]) {
				t.Fatalf("combblas %s: BC[%d]=%g want %g", g.Name, v, got[v], want[v])
			}
		}
	}
}
