package main

import (
	"strings"
	"testing"
)

// TestDirectedRMAT: -rmat with -directed samples arcs in both orientations
// (it used to flag the undirected, U<V-oriented edge list as directed —
// a DAG in which every arc runs from a lower to a higher index).
func TestDirectedRMAT(t *testing.T) {
	g, err := buildGraph("", "6,8", "", "", true, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed {
		t.Fatal("graph not directed")
	}
	for _, e := range g.Edges {
		if e.U > e.V {
			return
		}
	}
	t.Fatalf("no arc with U > V among %d: a DAG, not a directed R-MAT", g.M())
}

// TestDirectedRejectedOnLoadedGraphs: -directed cannot reorient a file or
// a stand-in, so it is an error there rather than silently ignored.
func TestDirectedRejectedOnLoadedGraphs(t *testing.T) {
	for name, args := range map[string][4]string{
		"in":      {"graph.txt", "", "", ""},
		"standin": {"", "", "", "orkut-sim"},
	} {
		_, err := buildGraph(args[0], args[1], args[2], args[3], true, 42)
		if err == nil || !strings.Contains(err.Error(), "-directed") {
			t.Errorf("-%s with -directed: err = %v, want a -directed error", name, err)
		}
	}
}
