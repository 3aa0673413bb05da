package graph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRMATProperties(t *testing.T) {
	g := RMAT(DefaultRMAT(9, 8, 7))
	if g.N > 1<<9 {
		t.Fatalf("n=%d exceeds 2^scale", g.N)
	}
	if g.M() == 0 {
		t.Fatal("no edges generated")
	}
	// Deduplication: no repeated edges.
	seen := map[[2]int32]bool{}
	for _, e := range g.Edges {
		k := [2]int32{e.U, e.V}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	}
	// Disconnected vertices removed: every vertex touched.
	touched := make([]bool, g.N)
	for _, e := range g.Edges {
		touched[e.U] = true
		touched[e.V] = true
	}
	for v, ok := range touched {
		if !ok {
			t.Fatalf("vertex %d is isolated after RemoveDisconnected", v)
		}
	}
	// Determinism.
	h := RMAT(DefaultRMAT(9, 8, 7))
	if h.N != g.N || h.M() != g.M() {
		t.Fatal("generator not deterministic")
	}
	// Power-law-ish skew: max degree far above average.
	st := ComputeStats(g, 16, 1)
	if float64(st.MaxDegree) < 4*st.AvgDegree {
		t.Fatalf("no degree skew: max %d avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestUniformExactEdgeCount(t *testing.T) {
	g := Uniform(100, 500, false, 9)
	if g.M() != 500 {
		t.Fatalf("m=%d want 500", g.M())
	}
	// Requesting more than the maximum clamps to the complete graph.
	k := Uniform(10, 1000, false, 9)
	if k.M() != 45 {
		t.Fatalf("complete graph clamp: m=%d want 45", k.M())
	}
}

func TestAdjacencySymmetryAndWeights(t *testing.T) {
	g := Grid2D(4, 4, 7, 11)
	a := g.Adjacency()
	if a.NNZ() != 2*g.M() {
		t.Fatalf("undirected adjacency nnz=%d want %d", a.NNZ(), 2*g.M())
	}
	for i := 0; i < g.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			v, ok := a.Get(j, int32(i))
			if !ok || v != vals[k] {
				t.Fatal("undirected adjacency must be symmetric")
			}
		}
	}
	d := layeredDAG(4, 5, 2, 3)
	if d.Adjacency().NNZ() != d.M() {
		t.Fatal("directed adjacency must store each edge once")
	}
	if d.AdjacencyNNZ() != d.M() || g.AdjacencyNNZ() != 2*g.M() {
		t.Fatal("AdjacencyNNZ wrong")
	}
}

func TestAdjacencyLists(t *testing.T) {
	g := &Graph{N: 4, Directed: true, Edges: []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 3, V: 1, W: 4}}}
	out, wts := g.OutAdjacencyLists()
	if len(out[0]) != 1 || out[0][0] != 1 || wts[0][0] != 2 {
		t.Fatal("out list wrong")
	}
	if len(out[2]) != 0 {
		t.Fatalf("out list of 2 has %d entries, want 0 (directed: in-edges do not count)", len(out[2]))
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		RMAT(DefaultRMAT(6, 5, 17)),
		Grid2D(4, 5, 9, 3),
		layeredDAG(4, 6, 2, 9),
	} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := readEdgeList(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if h.N != g.N || h.M() != g.M() || h.Directed != g.Directed || h.Weighted != g.Weighted {
			t.Fatalf("%s: header mismatch after round trip", g.Name)
		}
		for i := range g.Edges {
			if g.Edges[i] != h.Edges[i] {
				t.Fatalf("%s: edge %d differs", g.Name, i)
			}
		}
	}
}

func TestReadEdgeListBare(t *testing.T) {
	in := "0 1\n1 2\n2 0\n"
	g, err := readEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 3 || g.Weighted {
		t.Fatalf("bare parse wrong: n=%d m=%d", g.N, g.M())
	}
	if _, err := readEdgeList(bytes.NewBufferString("0 x\n")); err == nil {
		t.Fatal("malformed line must fail")
	}
}

func TestStandins(t *testing.T) {
	for _, spec := range Standins {
		g, err := Standin(spec.ID, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if g.Directed != spec.Directed {
			t.Fatalf("%s: directedness mismatch", spec.ID)
		}
		if g.N < 1000 {
			t.Fatalf("%s: implausibly small (n=%d)", spec.ID, g.N)
		}
	}
	if _, err := Standin("nosuch", 1, 1); err == nil {
		t.Fatal("unknown stand-in must fail")
	}
	// Relative orderings that carry the paper's performance narrative.
	stats := map[string]Stats{}
	for _, spec := range Standins {
		g, _ := Standin(spec.ID, 1, 42)
		stats[spec.ID] = ComputeStats(g, 16, 1)
	}
	if !(stats["orkut-sim"].AvgDegree > stats["livejournal-sim"].AvgDegree) {
		t.Fatal("orkut-sim must be denser than livejournal-sim")
	}
	if !(stats["patents-sim"].Diameter > stats["orkut-sim"].Diameter) {
		t.Fatal("patents-sim must have the larger diameter")
	}
}

func TestRemoveDisconnected(t *testing.T) {
	g := &Graph{N: 10, Edges: []Edge{{U: 2, V: 7, W: 1}, {U: 7, V: 9, W: 1}}}
	g.removeDisconnected()
	if g.N != 3 {
		t.Fatalf("n=%d want 3", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	bad := []*Graph{
		{N: 2, Edges: []Edge{{U: 0, V: 5, W: 1}}},           // out of range
		{N: 2, Edges: []Edge{{U: 0, V: 0, W: 1}}},           // self loop
		{N: 2, Edges: []Edge{{U: 0, V: 1, W: 0}}},           // zero weight
		{N: 2, Edges: []Edge{{U: 0, V: 1, W: -1}}},          // negative
		{N: 3, Edges: []Edge{{U: 2, V: 1, W: 1}}},           // bad orientation
		{N: 2, Edges: []Edge{{U: 0, V: 1, W: math.Inf(1)}}}, // infinite
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d must fail validation", i)
		}
	}
}

// TestValidateRejectsDuplicateEdges: an edge listed twice passes every
// per-edge check, yet Adjacency collapses it and OutAdjacencyLists does not.
// Adjacent or far apart in the list, the copy is found and the error names
// the edge; anti-parallel directed edges are distinct.
func TestValidateRejectsDuplicateEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    Graph
	}{
		{"adjacent", Graph{N: 4, Edges: []Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}}},
		{"apart", Graph{N: 4, Edges: []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 1}}}},
		{"directed", Graph{N: 3, Directed: true, Edges: []Edge{{U: 1, V: 0, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}}}},
	} {
		tc.g.Name = tc.name
		err := tc.g.Validate()
		if err == nil || !strings.Contains(err.Error(), "duplicate edge") {
			t.Fatalf("%s: Validate = %v, want a duplicate-edge error", tc.name, err)
		}
		first := tc.g.Edges[0]
		if want := fmt.Sprintf("(%d,%d)", first.U, first.V); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name edge %s", tc.name, err, want)
		}
	}
	ok := Graph{N: 3, Directed: true, Edges: []Edge{{U: 1, V: 0, W: 1}, {U: 0, V: 1, W: 1}, {U: 2, V: 1, W: 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("unsorted anti-parallel edges are not duplicates: %v", err)
	}
}
