package dynamic

import (
	"testing"

	"repro/internal/graph"
)

func TestCoalesceAlgebra(t *testing.T) {
	cases := []struct {
		name string
		in   []graph.Mutation
		want []graph.Mutation
	}{
		{
			name: "add then remove cancels",
			in: []graph.Mutation{
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 2},
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
			},
			want: nil,
		},
		{
			name: "chained sets keep last",
			in: []graph.Mutation{
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 2},
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 3},
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 5},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 5}},
		},
		{
			name: "remove then add becomes set_weight",
			in: []graph.Mutation{
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 4},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 4}},
		},
		{
			name: "sentinel re-add restores weight 1",
			in: []graph.Mutation{
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 0},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 1}},
		},
	}
	for _, tc := range cases {
		got := Coalesce(false, tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] { //lint:allow floateq exact literals round-trip through compaction
				t.Fatalf("%s: op %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
