package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

// seedFrontier is seedShare's reference: a batch's whole initial T as one
// COO, row i carrying the adjacency row of source batch[i] with
// multiplicity 1 and the source's own column left out, which FromGlobal
// cuts a rank's share of.
func seedFrontier(adj *sparse.CSR[float64], batch []int32) *sparse.COO[algebra.MultPath] {
	init := sparse.NewCOO[algebra.MultPath](len(batch), adj.Cols)
	for i, src := range batch {
		cols, vals := adj.Row(int(src))
		for k, v := range cols {
			if v != src {
				init.Append(int32(i), v, algebra.MultPath{W: vals[k], M: 1})
			}
		}
	}
	return init
}

// residentBlock returns the block an operand holds in the shard
// distribution. The block is no part of spgemm's API, so it reads the
// operand's unexported matrix (Stationary.m) by reflection.
func residentBlock(b *spgemm.Stationary[float64]) *distmat.Mat[float64] {
	f := reflect.ValueOf(b).Elem().FieldByName("m")
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*distmat.Mat[float64])
}

// sameBlock reports whether two pieces of one matrix are equal: shape,
// distribution and entries, nil and empty blocks apart.
func sameBlock[T any](x, y *distmat.Mat[T]) bool {
	return x.Rows == y.Rows && x.Cols == y.Cols && x.Dist.Equal(y.Dist) && reflect.DeepEqual(x.Local, y.Local)
}

// sameEntries reports whether two entry slices hold the same entries.
func sameEntries[T any](x, y []sparse.Entry[T]) bool {
	return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y))
}

// TestResetCutsShardsAsFromGlobal: a session cuts every rank's shard of A
// and Aᵀ straight from the CSR rows of its topology. Each equals
// FromGlobal's piece of the same matrix in coordinate form — on undirected
// and directed, weighted and unweighted graphs, with ranks that own
// nothing, at p ∈ {1, 4, 6}, and again after a vertex-growth reset of a
// live session.
func TestResetCutsShardsAsFromGlobal(t *testing.T) {
	directed := graph.DefaultRMAT(7, 6, 4)
	directed.Directed = true
	mesh := graph.Grid2D(6, 6, 9, 3)
	grown := mesh.Clone()
	if _, err := grown.ApplyAll([]graph.Mutation{{Op: graph.OpAddVertex}, {Op: graph.OpAddEdge, U: 5, V: 36, W: 4}}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 6} {
		for _, g := range []*graph.Graph{mesh, graph.RMAT(graph.DefaultRMAT(7, 6, 2)), graph.RMAT(directed), testkit.Path(3)} {
			sess, err := NewDistSession(g, DistOptions{Procs: p, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkShards(t, sess, g)
			if g == mesh {
				sess.reset(grown)
				checkShards(t, sess, grown)
			}
		}
	}
}

func checkShards(t *testing.T, sess *DistSession, g *graph.Graph) {
	t.Helper()
	trop := algebra.TropicalMonoid()
	adj := g.Adjacency()
	at := adj
	if g.Directed {
		at = sparse.Transpose(adj)
	}
	sess.cutShards()
	shard := distmat.DistShard(sess.p)
	for r, rk := range sess.ranks {
		a, aT := residentBlock(rk.a), residentBlock(rk.at)
		if want := distmat.FromGlobal(r, adj.ToCOO(), shard, trop); !sameBlock(a, want) {
			t.Errorf("p=%d %s n=%d rank %d: A shard %+v, want %+v", sess.p, g.Name, g.N, r, a.Local, want.Local)
		}
		if want := distmat.FromGlobal(r, at.ToCOO(), shard, trop); !sameBlock(aT, want) {
			t.Errorf("p=%d %s n=%d rank %d: Aᵀ shard %+v, want %+v", sess.p, g.Name, g.N, r, aT.Local, want.Local)
		}
	}
}

// TestSeedShareMatchesFromGlobal: each rank seeds its share of a batch's T
// straight from the adjacency rows. Its share equals FromGlobal's cut of
// the whole seed COO, on a mesh and on the mesh after an added, a removed
// and a reweighted edge, at p ∈ {1, 4, 6}. It is written over whatever
// storage it is handed.
func TestSeedShareMatchesFromGlobal(t *testing.T) {
	oldG := graph.Grid2D(6, 6, 9, 3)
	newG := oldG.Clone()
	e0, e1 := oldG.Edges[4], oldG.Edges[11]
	if _, err := newG.ApplyAll([]graph.Mutation{
		{Op: graph.OpAddEdge, U: 7, V: 20, W: 2},
		{Op: graph.OpRemoveEdge, U: e0.U, V: e0.V},
		{Op: graph.OpSetWeight, U: e1.U, V: e1.V, W: e1.W + 3},
	}); err != nil {
		t.Fatal(err)
	}
	batch := []int32{7, 20, e0.U, e0.V, e1.U, 0, 35}
	for _, p := range []int{1, 4, 6} {
		for name, adj := range map[string]*sparse.CSR[float64]{"old": oldG.Adjacency(), "new": newG.Adjacency()} {
			checkSeed(t, name, p, adj, batch, distmat.DistShard(p))
		}
	}
}

func checkSeed(t *testing.T, name string, p int, adj *sparse.CSR[float64], batch []int32, shard distmat.Dist) {
	t.Helper()
	seed := seedFrontier(adj, batch)
	mon := algebra.MultPathMonoid()
	var stale []sparse.Entry[algebra.MultPath]
	for r := 0; r < p; r++ {
		want := distmat.FromGlobal(r, seed, shard, mon).Local
		got := seedShare(nil, adj, batch, r, p)
		if !sameEntries(got, want) {
			t.Errorf("%s p=%d rank %d: seed share %+v, want %+v", name, p, r, got, want)
		}
		// Written over the last rank's share, in place.
		if stale = seedShare(stale, adj, batch, r, p); !sameEntries(stale, want) {
			t.Errorf("%s p=%d rank %d: seed share over used storage %+v, want %+v", name, p, r, stale, want)
		}
	}
}
