package spgemm

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// stageForTest reproduces what Multiply's staging path leaves on a rank for
// a stationary B operand: the entries the plan's B distribution assigns to
// it, widened to its whole fiber group under RoleB replication, sorted.
func stageForTest(plan Plan, rank, k, n int, global []sparse.Entry[float64]) []sparse.Entry[float64] {
	held := heldForTest(plan, rank, k, n)
	var out []sparse.Entry[float64]
	for _, e := range global {
		if held(e.I, e.J) {
			out = append(out, e)
		}
	}
	sortEntriesByCoord(out)
	return out
}

// heldForTest is whether rank's set staged under plan from a k×n operand
// holds (i, j): the plan's B distribution places it on rank, or on rank's
// fiber group under RoleB replication.
func heldForTest(plan Plan, rank, k, n int) func(i, j int32) bool {
	db := dbForTest(plan, k, n)
	inner := plan.P2 * plan.P3
	if plan.P1 > 1 && plan.X == RoleB {
		return func(i, j int32) bool { return db.Owner(i, j)%inner == rank%inner }
	}
	return func(i, j int32) bool { return db.Owner(i, j) == rank }
}

// dbForTest is the B distribution of a k×n operand under plan.
func dbForTest(plan Plan, k, n int) distmat.Dist {
	_, db, _ := Dists(plan, 1, k, n)
	return db
}

// residentFor builds what rank holds of a k×n matrix with entries global
// on a p-rank machine, staged under plans: its block in the shard
// distribution, and the set Multiply's staging leaves under each plan.
func residentFor(plans []Plan, p, rank, k, n int, global []sparse.Entry[float64]) *Stationary[float64] {
	b := NewStationary(&distmat.Mat[float64]{Rows: k, Cols: n, Dist: distmat.DistShard(p), Local: shardOf(p, rank, global)})
	for _, plan := range plans {
		b.sets[plan] = stageB(nil, plan, k, n, rank, dbForTest(plan, k, n), stageForTest(plan, rank, k, n, global))
	}
	return b
}

// shardOf returns rank's share of sorted entries in the shard distribution.
func shardOf[T any](p, rank int, global []sparse.Entry[T]) []sparse.Entry[T] {
	d := distmat.DistShard(p)
	var out []sparse.Entry[T]
	for _, e := range global {
		if d.Owner(e.I, e.J) == rank {
			out = append(out, e)
		}
	}
	return out
}

func sortEntriesByCoord(e []sparse.Entry[float64]) {
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && (e[j].I < e[j-1].I || (e[j].I == e[j-1].I && e[j].J < e[j-1].J)); j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// TestPatchStationaryMatchesRestage: for every decomposition family, the
// delta-patched working set must equal a from-scratch staging of the
// edited matrix on every rank.
func TestPatchStationaryMatchesRestage(t *testing.T) {
	plans := []Plan{
		{P1: 1, P2: 1, P3: 4, X: RoleA, YZ: VarAB}, // 1D
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB}, // 2D
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
		{P1: 2, P2: 2, P3: 1, X: RoleA, YZ: VarAB}, // 3D, A replicated
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC}, // 3D, B fiber-replicated
		{P1: 2, P2: 2, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 4, P2: 1, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 2, P2: 2, P3: 1, X: RoleC, YZ: VarBC}, // 3D, k split
	}
	const k, n = 17, 23
	global, edits, newGlobal := editedMatrix(9, k, n)
	for _, plan := range plans {
		for rank := 0; rank < plan.Procs(); rank++ {
			b := residentFor([]Plan{plan}, plan.Procs(), rank, k, n, global)
			b.Patch(rank, edits)
			got := b.sets[plan].entries
			want := stageForTest(plan, rank, k, n, newGlobal)
			if len(got) != len(want) {
				t.Fatalf("%s rank %d: %d entries after patch, restage has %d", plan, rank, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("%s rank %d entry %d: patched %+v, restaged %+v", plan, rank, x, got[x], want[x])
				}
			}
			if !slices.Equal(b.m.Local, shardOf(plan.Procs(), rank, newGlobal)) {
				t.Fatalf("%s rank %d: patched block %+v is not the rank's shard of the edited matrix", plan, rank, b.m.Local)
			}
		}
	}
}

// TestChargeStageIsMultiplysStaging: ChargeStage charges on every rank
// exactly the collectives of a multiply's staging — which under the
// p×1×1/X=B plan leaves the whole matrix on every rank — and keeps no set.
func TestChargeStageIsMultiplysStaging(t *testing.T) {
	const k, n = 17, 23
	global, _, _ := editedMatrix(5, k, n)
	for _, plan := range []Plan{
		{P1: 4, P2: 1, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
	} {
		p := plan.Procs()
		staged, charged := make([]*Stationary[float64], p), make([]*Stationary[float64], p)
		for rank := range staged {
			staged[rank] = residentFor(nil, p, rank, k, n, global)
			charged[rank] = residentFor(nil, p, rank, k, n, global)
		}
		var staging, charge [4]machine.Cost
		if _, err := sim.New(p).Run(func(proc *machine.Proc) {
			s, rank := NewSession(proc), proc.Rank()
			_, db, _ := staged[rank].Dists(s, plan, 0)
			staged[rank].staged(s, plan, db)
			staging[rank] = proc.Cost()
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.New(p).Run(func(proc *machine.Proc) {
			charged[proc.Rank()].ChargeStage(NewSession(proc), plan)
			charge[proc.Rank()] = proc.Cost()
		}); err != nil {
			t.Fatal(err)
		}
		for rank, b := range staged {
			want := stageB(nil, plan, k, n, rank, dbForTest(plan, k, n), stageForTest(plan, rank, k, n, global))
			if !reflect.DeepEqual(b.sets[plan], want) {
				t.Fatalf("%s rank %d: staged %+v, want %+v", plan, rank, b.sets[plan], want)
			}
			if plan.P1 == p && plan.X == RoleB && !slices.Equal(b.sets[plan].entries, global) {
				t.Fatalf("%s rank %d: the replica holds %d of %d entries", plan, rank, len(b.sets[plan].entries), len(global))
			}
			if staging[rank].Msgs == 0 || charge[rank] != staging[rank] {
				t.Fatalf("%s rank %d: staging costs %v, ChargeStage %v", plan, rank, staging[rank], charge[rank])
			}
			if len(charged[rank].sets) != 0 {
				t.Fatalf("%s rank %d: ChargeStage kept sets under %d plans", plan, rank, len(charged[rank].sets))
			}
		}
	}
}

// editedMatrix draws a k×n matrix of 60 entries, and edits that delete a
// third of them, reweight another third and insert fresh coordinates. It
// returns the matrix, the edits and the edited matrix, each sorted.
func editedMatrix(seed int64, k, n int) (global []sparse.Entry[float64], edits []StationaryEdit[float64], newGlobal []sparse.Entry[float64]) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int32]bool{}
	for len(global) < 60 {
		i, j := int32(rng.Intn(k)), int32(rng.Intn(n))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		global = append(global, sparse.Entry[float64]{I: i, J: j, V: 1 + rng.Float64()})
	}
	sortEntriesByCoord(global)

	// Edits: delete a third of the existing entries, reweight another
	// third, insert fresh coordinates.
	edited := map[[2]int32]*float64{}
	for _, e := range global {
		w := e.V
		edited[[2]int32{e.I, e.J}] = &w
	}
	for idx, e := range global {
		switch idx % 3 {
		case 0:
			edits = append(edits, StationaryEdit[float64]{I: e.I, J: e.J, Del: true})
			delete(edited, [2]int32{e.I, e.J})
		case 1:
			edits = append(edits, StationaryEdit[float64]{I: e.I, J: e.J, V: e.V + 10})
			*edited[[2]int32{e.I, e.J}] = e.V + 10
		}
	}
	for len(edited) < len(global)+8 {
		i, j := int32(rng.Intn(k)), int32(rng.Intn(n))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		w := 50 + rng.Float64()
		edits = append(edits, StationaryEdit[float64]{I: i, J: j, V: w})
		edited[[2]int32{i, j}] = &w
	}
	sortEdits := func(es []StationaryEdit[float64]) {
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && (es[j].I < es[j-1].I || (es[j].I == es[j-1].I && es[j].J < es[j-1].J)); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
	}
	sortEdits(edits)
	for key, w := range edited {
		newGlobal = append(newGlobal, sparse.Entry[float64]{I: key[0], J: key[1], V: *w})
	}
	sortEntriesByCoord(newGlobal)
	return global, edits, newGlobal
}

// TestSpliceUpsertsAndDeletes: a splice lands each owned edit on the block
// — an insert, a deletion, a reweight, an insert in the tail — and a
// deletion of a coordinate the block does not hold changes nothing; with
// nothing owned, the block comes back as it was.
func TestSpliceUpsertsAndDeletes(t *testing.T) {
	cur := []sparse.Entry[float64]{
		{I: 0, J: 1, V: 1.5}, {I: 0, J: 3, V: 2}, {I: 2, J: 0, V: 4}, {I: 2, J: 2, V: 8},
	}
	edits := []StationaryEdit[float64]{
		{I: 0, J: 2, V: 9},      // insert
		{I: 0, J: 3, Del: true}, // delete
		{I: 2, J: 2, V: 5},      // reweight
		{I: 3, J: 3, V: 7},      // insert in the tail
		{I: 3, J: 4, Del: true}, // delete of a non-entry: no-op
	}
	got := splice(nil, cur, edits, func(i, j int32) bool { return true })
	want := []sparse.Entry[float64]{
		{I: 0, J: 1, V: 1.5}, {I: 0, J: 2, V: 9}, {I: 2, J: 0, V: 4}, {I: 2, J: 2, V: 5}, {I: 3, J: 3, V: 7},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if none := splice(nil, cur, edits, func(i, j int32) bool { return false }); !slices.Equal(none, cur) {
		t.Fatalf("an unowned splice must keep the block, got %+v", none)
	}
}

// TestCachedViewsStayCoherent drives a resident through random sequences of
// staging and Patch, and after every step checks its block and each of its
// sets — block, stage buckets and row offsets — against ones built from
// scratch out of an independent model of the matrix. A view that outlives a
// patch multiplies against the pre-patch matrix without any error: only the
// scores come out wrong. Each Patch splices into the storage the one before
// it replaced, so a view left on storage a later step writes over shows as
// well. With no eviction the resident stays bounded by the plans alone.
func TestCachedViewsStayCoherent(t *testing.T) {
	plans := []Plan{
		{P1: 1, P2: 1, P3: 4, X: RoleA, YZ: VarAB},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAC},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
		{P1: 4, P2: 1, P3: 1, X: RoleA, YZ: VarAB},
		{P1: 4, P2: 1, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC},
		{P1: 2, P2: 2, P3: 1, X: RoleC, YZ: VarBC},
	}
	const k, n, p = 19, 21, 4
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for rank := 0; rank < p; rank++ {
			model := map[[2]int32]float64{}
			for len(model) < 70 {
				model[[2]int32{int32(rng.Intn(k)), int32(rng.Intn(n))}] = float64(1 + rng.Intn(9))
			}
			global := func() []sparse.Entry[float64] {
				var out []sparse.Entry[float64]
				for c, w := range model {
					out = append(out, sparse.Entry[float64]{I: c[0], J: c[1], V: w})
				}
				sortEntriesByCoord(out)
				return out
			}
			// randomEdits draws sorted, duplicate-free edits: deletions and
			// reweights of resident coordinates, and inserts of fresh ones.
			randomEdits := func() []StationaryEdit[float64] {
				picked := map[[2]int32]bool{}
				var edits []StationaryEdit[float64]
				for x := 0; x < 1+rng.Intn(6); x++ {
					c := [2]int32{int32(rng.Intn(k)), int32(rng.Intn(n))}
					if picked[c] {
						continue
					}
					picked[c] = true
					_, resident := model[c]
					edits = append(edits, StationaryEdit[float64]{I: c[0], J: c[1], V: float64(10 + rng.Intn(9)), Del: resident && rng.Intn(2) == 0})
				}
				slices.SortFunc(edits, func(a, b StationaryEdit[float64]) int {
					return cmp.Compare(distmat.CoordKey(a.I, a.J), distmat.CoordKey(b.I, b.J))
				})
				return edits
			}
			b := residentFor(nil, p, rank, k, n, global())
			// check compares the resident with a from-scratch one of the
			// model.
			check := func(step string) {
				t.Helper()
				if !slices.Equal(b.m.Local, shardOf(p, rank, global())) {
					t.Fatalf("seed %d rank %d after %s: block diverged from the model's shard", seed, rank, step)
				}
				for plan, set := range b.sets {
					if want := stageB(nil, plan, k, n, rank, dbForTest(plan, k, n), stageForTest(plan, rank, k, n, global())); !reflect.DeepEqual(set, want) {
						t.Fatalf("seed %d rank %d after %s: set %s diverged from a fresh staging\n got %+v\nwant %+v", seed, rank, step, plan, set, want)
					}
				}
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(3) {
				case 0: // a multiply under some plan: hit, or stage
					plan := plans[rng.Intn(len(plans))]
					if _, hit := b.sets[plan]; !hit {
						b.sets[plan] = stageB(nil, plan, k, n, rank, dbForTest(plan, k, n), stageForTest(plan, rank, k, n, global()))
					}
					check("stage")
				case 1, 2:
					edits := randomEdits()
					for _, ed := range edits {
						if ed.Del {
							delete(model, [2]int32{ed.I, ed.J})
						} else {
							model[[2]int32{ed.I, ed.J}] = ed.V
						}
					}
					b.Patch(rank, edits)
					check("patch")
				}
				if got := len(b.sets); got > len(plans) {
					t.Fatalf("seed %d rank %d: %d sets resident for %d plans", seed, rank, got, len(plans))
				}
			}
		}
	}
}

// TestPatchedStationaryMultipliesAsFresh: a resident staged under a plan,
// then patched, then multiplied, gives the product of one built fresh from
// the edited matrix — by rank, entry for entry — and holds that one's block
// and set, under every plan TestCachedViewsStayCoherent draws from and on
// one rank, where B's distribution equals the block's, so nothing moves and
// the set is staged from the block itself. Before staging, the resident is
// patched there and back, so that its block sits in storage a splice grew,
// with room to spare, as a long-patched block does; or it is emptied, so
// that a set staged from the block itself starts from no entries but with
// room, and is then refilled before the edits, so that two patches splice
// over that storage.
func TestPatchedStationaryMultipliesAsFresh(t *testing.T) {
	plans := []Plan{
		{P1: 1, P2: 1, P3: 4, X: RoleA, YZ: VarAB},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAC},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
		{P1: 4, P2: 1, P3: 1, X: RoleA, YZ: VarAB},
		{P1: 4, P2: 1, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC},
		{P1: 2, P2: 2, P3: 1, X: RoleC, YZ: VarBC},
		{P1: 1, P2: 1, P3: 1, X: RoleA, YZ: VarAB},
	}
	const m, k, n = 9, 17, 23
	global, edits, newGlobal := editedMatrix(5, k, n)
	undo := make([]StationaryEdit[float64], len(edits))
	for x, ed := range edits {
		undo[x] = StationaryEdit[float64]{I: ed.I, J: ed.J, Del: true}
		for _, e := range global {
			if e.I == ed.I && e.J == ed.J {
				undo[x] = StationaryEdit[float64]{I: e.I, J: e.J, V: e.V}
			}
		}
	}
	coo := func(es []sparse.Entry[float64]) *sparse.COO[float64] {
		out := sparse.NewCOO[float64](k, n)
		for _, e := range es {
			out.Append(e.I, e.J, e.V)
		}
		return out
	}
	clearAll, refill := make([]StationaryEdit[float64], len(global)), make([]StationaryEdit[float64], len(global))
	for x, e := range global {
		clearAll[x] = StationaryEdit[float64]{I: e.I, J: e.J, Del: true}
		refill[x] = StationaryEdit[float64]{I: e.I, J: e.J, V: e.V}
	}
	histories := []struct {
		name          string
		before, after [][]StationaryEdit[float64] // the patches before and after staging
	}{
		{"patched there and back", [][]StationaryEdit[float64]{edits, undo}, [][]StationaryEdit[float64]{edits}},
		{"emptied", [][]StationaryEdit[float64]{clearAll}, [][]StationaryEdit[float64]{refill, edits}},
	}
	cooA, cooB, cooFresh := randomCOO(m, k, 0.3, 6), coo(global), coo(newGlobal)
	for _, h := range histories {
		for _, plan := range plans {
			p := plan.Procs()
			_, err := sim.New(p).Run(func(proc *machine.Proc) {
				s := NewSession(proc)
				rank := proc.Rank()
				a := distmat.FromGlobal(rank, cooA, distmat.DistShard(p), addF)
				b := NewStationary(distmat.FromGlobal(rank, cooB, distmat.DistShard(p), addF))
				for _, ed := range h.before {
					b.Patch(rank, ed)
				}
				Multiply(s, plan, a, b, mulF, addF, nil, nil)
				for _, ed := range h.after {
					b.Patch(rank, ed)
				}
				got := Multiply(s, plan, a, b, mulF, addF, nil, nil)
				fresh := NewStationary(distmat.FromGlobal(rank, cooFresh, distmat.DistShard(p), addF))
				want := Multiply(s, plan, a, fresh, mulF, addF, nil, nil)
				if !slices.Equal(got.Local, want.Local) {
					panic(fmt.Sprintf("%s, %s rank %d: patched product %v, fresh %v", h.name, plan, rank, got.Local, want.Local))
				}
				if !slices.Equal(b.m.Local, fresh.m.Local) || !reflect.DeepEqual(b.sets, fresh.sets) {
					panic(fmt.Sprintf("%s, %s rank %d: patched resident differs from a fresh one", h.name, plan, rank))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStagedViewsMatchDefinition pins stageB itself: stage t's block holds
// exactly the entries the stage loop's own bucketing rule assigns to it,
// in order, and each row index equals indexRows over the range the rank
// multiplies that block against.
func TestStagedViewsMatchDefinition(t *testing.T) {
	const k, n = 19, 21
	rng := rand.New(rand.NewSource(3))
	var global []sparse.Entry[float64]
	seen := map[[2]int32]bool{}
	for len(global) < 120 {
		c := [2]int32{int32(rng.Intn(k)), int32(rng.Intn(n))}
		if !seen[c] {
			seen[c] = true
			global = append(global, sparse.Entry[float64]{I: c[0], J: c[1], V: rng.Float64()})
		}
	}
	sortEntriesByCoord(global)
	for _, p := range []int{1, 2, 4, 6} {
		for _, f := range machine.Factorizations3(p) {
			for _, x := range []Role{RoleA, RoleB, RoleC} {
				for _, yz := range []Variant{VarAB, VarAC, VarBC} {
					plan := Plan{P1: f[0], P2: f[1], P3: f[2], X: x, YZ: yz}
					s := plan.stages()
					for rank := 0; rank < p; rank++ {
						entries := stageForTest(plan, rank, k, n, global)
						got := stageB(nil, plan, k, n, rank, dbForTest(plan, k, n), entries)
						inner := plan.P2 * plan.P3
						r := layerRanges(plan, 1, k, n, rank/inner)
						var blocks [][]sparse.Entry[float64]
						var offs [][]int32
						switch yz {
						case VarAB:
							blocks = make([][]sparse.Entry[float64], s)
							for _, e := range entries {
								st := partIn(e.I, r.k0, r.k1, s)
								blocks[st] = append(blocks[st], e)
							}
							for st, blk := range blocks {
								kb0, kb1 := stageBounds(st, r.k0, r.k1, s)
								offs = append(offs, indexRows(nil, blk, kb0, kb1))
							}
						case VarAC:
							kb0, kb1 := stageBounds(rank%inner/plan.P3, r.k0, r.k1, plan.P2)
							blocks, offs = [][]sparse.Entry[float64]{entries}, [][]int32{indexRows(nil, entries, kb0, kb1)}
						default:
							blocks = make([][]sparse.Entry[float64], s)
							for _, e := range entries {
								st := partIn(e.J, r.n0, r.n1, s)
								blocks[st] = append(blocks[st], e)
							}
							kb0, kb1 := stageBounds(rank%plan.P3, r.k0, r.k1, plan.P3)
							for _, blk := range blocks {
								offs = append(offs, indexRows(nil, blk, kb0, kb1))
							}
						}
						if len(got.blocks) != len(blocks) {
							t.Fatalf("%s rank %d: %d blocks, want %d", plan, rank, len(got.blocks), len(blocks))
						}
						for st := range blocks {
							if !slices.Equal(got.blocks[st], blocks[st]) || !slices.Equal(got.offs[st], offs[st]) {
								t.Fatalf("%s rank %d stage %d:\n got %v %v\nwant %v %v", plan, rank, st, got.blocks[st], got.offs[st], blocks[st], offs[st])
							}
						}
					}
				}
			}
		}
	}
}
