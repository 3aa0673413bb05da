package graph

import (
	"math"
	"strings"
	"testing"
)

// square returns the 4-cycle 0-1-2-3-0, undirected and unweighted.
func square() *Graph {
	return &Graph{Name: "square", N: 4, Edges: []Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	}}
}

func TestAddEdgeValidatesAndDedupes(t *testing.T) {
	g := square()
	if err := g.AddEdge(0, 2, 0); err != nil {
		t.Fatalf("AddEdge(0,2): %v", err)
	}
	if w, ok := g.FindEdge(2, 0); !ok || w != 1 {
		t.Fatalf("FindEdge(2,0) = %v,%v after weight-0 (=1) insert", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after AddEdge: %v", err)
	}
	for _, bad := range []struct {
		u, v int32
		w    float64
		want string
	}{
		{0, 2, 1, "already present"},      // duplicate (canonical)
		{2, 0, 1, "already present"},      // duplicate (reversed orientation)
		{1, 1, 1, "self-loop"},            // self-loop
		{0, 9, 1, "outside"},              // out of range
		{-1, 2, 1, "outside"},             // negative id
		{1, 3, -2, "nonpositive"},         // bad weight
		{1, 3, math.NaN(), "nonpositive"}, // NaN fails the w > 0 check
	} {
		err := g.AddEdge(bad.u, bad.v, bad.w)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("AddEdge(%d,%d,%g) = %v, want error containing %q", bad.u, bad.v, bad.w, err, bad.want)
		}
	}
	if g.M() != 5 {
		t.Fatalf("M = %d after failed mutations, want 5", g.M())
	}
}

func TestRemoveAndSetWeight(t *testing.T) {
	g := square()
	if err := g.RemoveEdge(3, 0); err != nil { // reversed orientation resolves
		t.Fatalf("RemoveEdge(3,0): %v", err)
	}
	if _, ok := g.FindEdge(0, 3); ok {
		t.Fatal("edge (0,3) still present after removal")
	}
	if err := g.RemoveEdge(0, 3); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := g.SetWeight(1, 2, 2.5); err != nil {
		t.Fatalf("SetWeight: %v", err)
	}
	if w, _ := g.FindEdge(1, 2); w != 2.5 {
		t.Fatalf("weight = %v after SetWeight, want 2.5", w)
	}
	if !g.Weighted {
		t.Fatal("Weighted flag not raised by non-unit SetWeight")
	}
	if err := g.SetWeight(0, 3, 1); err == nil {
		t.Fatal("SetWeight on missing edge succeeded")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddVertexAndApplyAll(t *testing.T) {
	g := square()
	id := g.AddVertex()
	if id != 4 || g.N != 5 {
		t.Fatalf("AddVertex = %d, N = %d", id, g.N)
	}
	applied, err := g.ApplyAll([]Mutation{
		{Op: OpAddVertex},
		{Op: OpAddEdge, U: 4, V: 5, W: 3},
		{Op: OpAddEdge, U: 0, V: 4, W: 1},
	})
	if err != nil || applied != 3 {
		t.Fatalf("ApplyAll = %d,%v", applied, err)
	}
	if w, ok := g.FindEdge(5, 4); !ok || w != 3 {
		t.Fatalf("edge to new vertex: %v,%v", w, ok)
	}
	// A failing batch reports the offending index.
	applied, err = g.ApplyAll([]Mutation{
		{Op: OpRemoveEdge, U: 0, V: 1},
		{Op: OpAddEdge, U: 1, V: 1},
	})
	if err == nil || applied != 1 || !strings.Contains(err.Error(), "mutation 1") {
		t.Fatalf("ApplyAll partial = %d,%v", applied, err)
	}
	if err := g.Apply(Mutation{Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestDirectedMutationsKeepOrientation(t *testing.T) {
	g := &Graph{Name: "d", N: 3, Directed: true, Edges: []Edge{{U: 1, V: 0, W: 1}}}
	if err := g.AddEdge(2, 0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, ok := g.FindEdge(0, 2); ok {
		t.Fatal("directed FindEdge matched the reversed orientation")
	}
	if _, ok := g.FindEdge(2, 0); !ok {
		t.Fatal("directed edge (2,0) missing")
	}
	if err := g.AddEdge(0, 1, 1); err != nil { // anti-parallel to (1,0) is legal
		t.Fatalf("anti-parallel AddEdge: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestMutationsOnUnsortedEdges: mutation methods must work on graphs whose
// edge slice is not in canonical order (hand-built, permuted, ...).
func TestMutationsOnUnsortedEdges(t *testing.T) {
	g := &Graph{Name: "u", N: 4, Edges: []Edge{
		{U: 2, V: 3, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
	}}
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatalf("RemoveEdge on unsorted graph: %v", err)
	}
	if w, ok := g.FindEdge(2, 3); !ok || w != 1 {
		t.Fatalf("FindEdge(2,3) = %v,%v", w, ok)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestCloneIsolatesMutations(t *testing.T) {
	g := square()
	c := g.Clone()
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(0, 2, 7); err != nil {
		t.Fatal(err)
	}
	if g.M() != 4 || g.Weighted {
		t.Fatalf("original mutated through clone: m=%d weighted=%v", g.M(), g.Weighted)
	}
	if Fingerprint(g) == Fingerprint(c) {
		t.Fatal("clone mutation did not change the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g := square()
	base := Fingerprint(g)
	c := g.Clone()
	if err := c.SetWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(c) == base {
		t.Fatal("weight change invisible to fingerprint")
	}
	c2 := g.Clone()
	c2.AddVertex()
	if Fingerprint(c2) == base {
		t.Fatal("vertex count change invisible to fingerprint")
	}
	if Fingerprint(g.Clone()) != base {
		t.Fatal("clone fingerprint differs from original")
	}
}

// replay applies a log to a clone of g and returns the result.
func replay(t *testing.T, g *Graph, muts []Mutation) *Graph {
	t.Helper()
	c := g.Clone()
	if _, err := c.ApplyAll(muts); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return c
}

func TestCompact(t *testing.T) {
	g := square()
	seq := []Mutation{
		{Op: OpAddVertex},                   // 4
		{Op: OpAddEdge, U: 0, V: 4, W: 2},   // transient: removed below
		{Op: OpAddEdge, U: 1, V: 4, W: 1},   // survives
		{Op: OpSetWeight, U: 1, V: 4, W: 5}, // folded into the add
		{Op: OpRemoveEdge, U: 0, V: 4},      // cancels the transient add
		{Op: OpRemoveEdge, U: 0, V: 1},      // pre-existing: stays a remove
		{Op: OpSetWeight, U: 2, V: 3, W: 2}, // chained sets keep the last
		{Op: OpSetWeight, U: 2, V: 3, W: 9}, //
		{Op: OpRemoveEdge, U: 0, V: 3},      // remove+add on pre-existing edge
		{Op: OpAddEdge, U: 0, V: 3, W: 4},   //   → one set_weight
	}
	want := replay(t, g, seq)

	compacted := Compact(false, seq)
	if len(compacted) >= len(seq) {
		t.Fatalf("Compact did not shrink: %d → %d", len(seq), len(compacted))
	}
	got := replay(t, g, compacted)
	if Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("compacted replay differs:\n got %+v\nwant %+v", got, want)
	}
	// Compaction is idempotent.
	if again := Compact(false, compacted); len(again) != len(compacted) {
		t.Fatalf("second Compact changed length %d → %d", len(compacted), len(again))
	}
}

// TestCompactMixedOrientation: on undirected graphs, (u,v) and (v,u) in a
// history name the same edge; compaction must merge their histories, not
// split them into a corrupting pair.
func TestCompactMixedOrientation(t *testing.T) {
	g := &Graph{Name: "pair", N: 4}
	hist := []Mutation{
		{Op: OpAddEdge, U: 1, V: 3, W: 5},
		{Op: OpRemoveEdge, U: 3, V: 1}, // same edge, reversed
		{Op: OpAddEdge, U: 1, V: 3, W: 2},
	}
	want := replay(t, g, hist)
	compacted := Compact(false, hist)
	got := replay(t, g, compacted)
	if Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("mixed-orientation compaction corrupts replay:\n got %+v\nwant %+v", got, want)
	}
	if len(compacted) != 1 {
		t.Fatalf("compacted len = %d, want 1 (single surviving add)", len(compacted))
	}
	// Directed graphs keep (1,3) and (3,1) distinct.
	dg := &Graph{Name: "dpair", N: 4, Directed: true}
	dhist := []Mutation{
		{Op: OpAddEdge, U: 1, V: 3, W: 5},
		{Op: OpAddEdge, U: 3, V: 1, W: 2}, // anti-parallel, distinct
	}
	dwant := replay(t, dg, dhist)
	dcompacted := Compact(true, dhist)
	dgot := replay(t, dg, dcompacted)
	if Fingerprint(dgot) != Fingerprint(dwant) || len(dcompacted) != 2 {
		t.Fatalf("directed compaction merged anti-parallel edges: len=%d", len(dcompacted))
	}
}

// TestFindEdgeIsReadOnly: FindEdge must not reorder the edge slice (it
// runs against shared immutable snapshots).
func TestFindEdgeIsReadOnly(t *testing.T) {
	g := &Graph{Name: "u", N: 4, Edges: []Edge{
		{U: 2, V: 3, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
	}}
	before := append([]Edge(nil), g.Edges...)
	if _, ok := g.FindEdge(1, 0); !ok {
		t.Fatal("FindEdge missed an existing edge on an unsorted slice")
	}
	if _, ok := g.FindEdge(3, 0); ok {
		t.Fatal("FindEdge invented an edge")
	}
	for i, e := range g.Edges {
		if e != before[i] {
			t.Fatalf("FindEdge reordered the edge slice: %+v vs %+v", g.Edges, before)
		}
	}
}
