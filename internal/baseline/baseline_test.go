package baseline

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/testkit"
)

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func TestBrandesClosedForms(t *testing.T) {
	// Path: interior vertex i lies between 2·i·(n-1-i) ordered pairs.
	g := testkit.Path(7)
	bc := Brandes(g)
	for i := 0; i < 7; i++ {
		want := float64(2 * i * (6 - i))
		if !almostEqual(bc[i], want) {
			t.Fatalf("path BC[%d]=%g want %g", i, bc[i], want)
		}
	}
	// Star: hub between all ordered spoke pairs.
	s := testkit.Star(9)
	bcs := Brandes(s)
	if !almostEqual(bcs[0], float64(8*7)) {
		t.Fatalf("star hub BC=%g want %d", bcs[0], 8*7)
	}
	// Complete graph: nobody is an intermediary.
	k := graph.Uniform(6, 15, false, 1) // 6 choose 2 = 15: complete
	for v, x := range Brandes(k) {
		if x != 0 {
			t.Fatalf("K6 BC[%d]=%g want 0", v, x)
		}
	}
}

func TestBrandesWeightedMatchesUnitWeights(t *testing.T) {
	// With all weights equal, weighted and unweighted Brandes must agree.
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 3))
	unweighted := Brandes(g)
	g.Weighted = true
	for i := range g.Edges {
		g.Edges[i].W = 2.5
	}
	weighted := Brandes(g)
	for v := range unweighted {
		if !almostEqual(unweighted[v], weighted[v]) {
			t.Fatalf("BC[%d]: unweighted %g vs uniform-weighted %g", v, unweighted[v], weighted[v])
		}
	}
}

func TestBrandesSourcesPartition(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 5, 7))
	full := Brandes(g)
	part := make([]float64, g.N)
	for lo := 0; lo < g.N; lo += 17 {
		hi := lo + 17
		if hi > g.N {
			hi = g.N
		}
		var srcs []int32
		for s := lo; s < hi; s++ {
			srcs = append(srcs, int32(s))
		}
		chunk := BrandesSources(g, srcs)
		for v := range chunk {
			part[v] += chunk[v]
		}
	}
	for v := range full {
		if !almostEqual(full[v], part[v]) {
			t.Fatalf("source partition broke at %d: %g vs %g", v, part[v], full[v])
		}
	}
}

func TestDistCombBLASMatchesBrandes(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		g := graph.RMAT(graph.DefaultRMAT(6, 7, int64(p)))
		want := Brandes(g)
		got, err := CombBLASStyleDistributed(g, DistCombBLASOptions{Procs: p, Batch: 32})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for v := range want {
			if !almostEqual(got.BC[v], want[v]) {
				t.Fatalf("p=%d: BC[%d]=%g want %g", p, v, got.BC[v], want[v])
			}
		}
		if p > 1 && (got.Stats.MaxCost.Bytes == 0 || got.Stats.MaxCost.Msgs == 0) {
			t.Fatalf("p=%d: no communication charged", p)
		}
	}
}

func TestDistCombBLASDirected(t *testing.T) {
	opt := graph.DefaultRMAT(6, 5, 11)
	opt.Directed = true
	g := graph.RMAT(opt)
	want := Brandes(g)
	got, err := CombBLASStyleDistributed(g, DistCombBLASOptions{Procs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if !almostEqual(got.BC[v], want[v]) {
			t.Fatalf("BC[%d]=%g want %g", v, got.BC[v], want[v])
		}
	}
}

func TestDistCombBLASRejectsWeighted(t *testing.T) {
	g := graph.Grid2D(3, 3, 5, 1)
	if _, err := CombBLASStyleDistributed(g, DistCombBLASOptions{Procs: 4}); err == nil {
		t.Fatal("weighted graph must be rejected")
	}
}

func TestSquarest2D(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 16: {4, 4}, 64: {8, 8}, 12: {3, 4}, 7: {1, 7}}
	for p, want := range cases {
		pr, pc := squarest2D(p)
		if pr*pc != p || (pr != want[0] && pr != want[1]) {
			t.Fatalf("squarest2D(%d) = (%d,%d), want %v", p, pr, pc, want)
		}
	}
}
