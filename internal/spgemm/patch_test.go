package spgemm

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// stageForTest reproduces what Multiply's staging path leaves on a rank for
// a stationary B operand: the entries the plan's B distribution assigns to
// it, widened to its whole fiber group under RoleB replication, sorted.
func stageForTest(plan Plan, rank, k, n int, global []sparse.Entry[float64]) []sparse.Entry[float64] {
	_, db, _ := Dists(plan, 1, k, n)
	inner := plan.P2 * plan.P3
	fiberRepl := plan.P1 > 1 && plan.X == RoleB
	var out []sparse.Entry[float64]
	for _, e := range global {
		owner := db.Owner(e.I, e.J)
		if fiberRepl {
			if owner%inner != rank%inner {
				continue
			}
		} else if owner != rank {
			continue
		}
		out = append(out, e)
	}
	sortEntriesByCoord(out)
	return out
}

// residentFor builds what rank holds of a k×n matrix with entries global
// on a p-rank machine, staged under plans: its block in the shard
// distribution, and the set Multiply's staging leaves under each plan.
func residentFor(plans []Plan, p, rank, k, n int, global []sparse.Entry[float64]) *Stationary[float64] {
	b := NewStationary(&distmat.Mat[float64]{Rows: k, Cols: n, Dist: distmat.DistShard(p), Local: shardOf(p, rank, global)})
	for _, plan := range plans {
		b.sets[plan] = stageB(plan, k, n, rank, stageForTest(plan, rank, k, n, global))
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

// TestPairSpliceMatchesSideBySide: the pair lift of a stationary block must
// equal the old block and the edited block staged side by side.
func TestPairSpliceMatchesSideBySide(t *testing.T) {
	cur := []sparse.Entry[float64]{
		{I: 0, J: 1, V: 1.5}, {I: 0, J: 3, V: 2}, {I: 2, J: 0, V: 4}, {I: 2, J: 2, V: 8},
	}
	edits := []StationaryEdit[float64]{
		{I: 0, J: 2, V: 9},      // insert: new side only
		{I: 0, J: 3, Del: true}, // delete: old side only afterwards
		{I: 2, J: 2, V: 5},      // reweight
		{I: 3, J: 3, V: 7},      // insert in the tail
		{I: 3, J: 4, Del: true}, // delete of a non-entry: no-op
	}
	got := pairSplice(cur, edits, func(i, j int32) bool { return true })
	inf := func() float64 { return algebra.Inf }
	want := []sparse.Entry[algebra.WeightPair]{
		{I: 0, J: 1, V: algebra.WeightPair{Old: 1.5, New: 1.5}},
		{I: 0, J: 2, V: algebra.WeightPair{Old: inf(), New: 9}},
		{I: 0, J: 3, V: algebra.WeightPair{Old: 2, New: inf()}},
		{I: 2, J: 0, V: algebra.WeightPair{Old: 4, New: 4}},
		{I: 2, J: 2, V: algebra.WeightPair{Old: 8, New: 5}},
		{I: 3, J: 3, V: algebra.WeightPair{Old: inf(), New: 7}},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Ownership filter: nothing owned, nothing spliced, old entries lifted.
	none := pairSplice(cur, edits, func(i, j int32) bool { return false })
	if len(none) != len(cur) {
		t.Fatalf("unowned splice must keep the lifted base block, got %d entries", len(none))
	}
	for i, e := range cur {
		if none[i].V != (algebra.WeightPair{Old: e.V, New: e.V}) {
			t.Fatalf("entry %d not lifted: %+v", i, none[i])
		}
	}
}

// TestStagePairStationary: PairOf lifts the block and every staged set of
// the scalar resident, each equal to a pairSplice under its own ownership
// filter, reports the entries it wrote, and leaves the scalar resident as
// it was.
func TestStagePairStationary(t *testing.T) {
	plans := []Plan{
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB},
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC}, // fiber-replicated B
	}
	const k, n = 11, 13
	rng := rand.New(rand.NewSource(4))
	var global []sparse.Entry[float64]
	seen := map[[2]int32]bool{}
	for len(global) < 30 {
		i, j := int32(rng.Intn(k)), int32(rng.Intn(n))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		global = append(global, sparse.Entry[float64]{I: i, J: j, V: 1 + rng.Float64()})
	}
	sortEntriesByCoord(global)
	edits := []StationaryEdit[float64]{
		{I: global[0].I, J: global[0].J, Del: true},
		{I: global[4].I, J: global[4].J, V: 99},
	}
	sortEdits := func(es []StationaryEdit[float64]) {
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && (es[j].I < es[j-1].I || (es[j].I == es[j-1].I && es[j].J < es[j-1].J)); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
	}
	sortEdits(edits)
	const p = 4
	for rank := 0; rank < p; rank++ {
		b := residentFor(plans, p, rank, k, n, global)
		before := residentFor(plans, p, rank, k, n, global)
		pair, ops := PairOf(b, rank, edits)
		wrote := len(pair.m.Local)
		if want := pairSplice(b.m.Local, edits, b.inBlock(rank)); !slices.Equal(pair.m.Local, want) {
			t.Fatalf("rank %d: pair block %+v, want %+v", rank, pair.m.Local, want)
		}
		for _, plan := range plans {
			set, ok := pair.sets[plan]
			if !ok {
				t.Fatalf("%s rank %d: pair set not staged", plan, rank)
			}
			got := set.entries
			owns := stationaryOwnership(plan, k, n, nil)
			want := pairSplice(stageForTest(plan, rank, k, n, global), edits, func(i, j int32) bool { return owns(rank, i, j) })
			if len(got) != len(want) {
				t.Fatalf("%s rank %d: %d pair entries, want %d", plan, rank, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("%s rank %d entry %d: %+v vs %+v", plan, rank, x, got[x], want[x])
				}
			}
			wrote += len(got)
		}
		if len(pair.sets) != len(plans) {
			t.Fatalf("rank %d: %d pair sets for %d scalar sets", rank, len(pair.sets), len(plans))
		}
		if ops != int64(wrote) {
			t.Fatalf("rank %d: reported %d ops, wrote %d entries", rank, ops, wrote)
		}
		if !slices.Equal(b.m.Local, before.m.Local) || !reflect.DeepEqual(b.sets, before.sets) {
			t.Fatalf("rank %d: PairOf changed the scalar resident", rank)
		}
	}
}

// TestCachedViewsStayCoherent drives a resident through random sequences of
// staging, Patch and PairOf, and after every step checks its block and each
// of its sets — block, stage buckets and row offsets — against ones built
// from scratch out of an independent model of the matrix, and likewise each
// pair operand's. A view that outlives a patch multiplies against the
// pre-patch matrix without any error: only the scores come out wrong. With
// no eviction the resident stays bounded by the plans alone, and a pair
// operand holds exactly the resident's plans.
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
					if want := stageB(plan, k, n, rank, stageForTest(plan, rank, k, n, global())); !reflect.DeepEqual(set, want) {
						t.Fatalf("seed %d rank %d after %s: set %s diverged from a fresh staging\n got %+v\nwant %+v", seed, rank, step, plan, set, want)
					}
				}
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0: // a multiply under some plan: hit, or stage
					plan := plans[rng.Intn(len(plans))]
					if !b.Staged(plan) {
						b.sets[plan] = stageB(plan, k, n, rank, stageForTest(plan, rank, k, n, global()))
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
				case 3: // a fused region: the pair lift of every set
					edits := randomEdits()
					pair, _ := PairOf(b, rank, edits)
					if got, want := len(pair.sets), len(b.sets); got != want {
						t.Fatalf("seed %d rank %d: %d pair sets for %d scalar sets", seed, rank, got, want)
					}
					for plan, set := range pair.sets {
						owns := stationaryOwnership(plan, k, n, nil)
						base := stageForTest(plan, rank, k, n, global())
						want := stageB(plan, k, n, rank, pairSplice(base, edits, func(i, j int32) bool { return owns(rank, i, j) }))
						if !b.Staged(plan) || !reflect.DeepEqual(set, want) {
							t.Fatalf("seed %d rank %d: pair set %s diverged from a fresh staging\n got %+v\nwant %+v", seed, rank, plan, set, want)
						}
					}
					check("pair staging")
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
// and set, under every plan TestCachedViewsStayCoherent draws from.
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
	}
	const m, k, n, p = 9, 17, 23, 4
	global, edits, newGlobal := editedMatrix(5, k, n)
	coo := func(es []sparse.Entry[float64]) *sparse.COO[float64] {
		out := sparse.NewCOO[float64](k, n)
		for _, e := range es {
			out.Append(e.I, e.J, e.V)
		}
		return out
	}
	cooA, cooB, cooFresh := randomCOO(m, k, 0.3, 6), coo(global), coo(newGlobal)
	for _, plan := range plans {
		_, err := sim.New(p).Run(func(proc *machine.Proc) {
			s := NewSession(proc)
			rank := proc.Rank()
			a := distmat.FromGlobal(rank, cooA, distmat.DistShard(p), addF)
			b := NewStationary(distmat.FromGlobal(rank, cooB, distmat.DistShard(p), addF))
			Multiply(s, plan, a, b, mulF, addF, nil, nil)
			b.Patch(rank, edits)
			got := Multiply(s, plan, a, b, mulF, addF, nil, nil)
			fresh := NewStationary(distmat.FromGlobal(rank, cooFresh, distmat.DistShard(p), addF))
			want := Multiply(s, plan, a, fresh, mulF, addF, nil, nil)
			if !slices.Equal(got.Local, want.Local) {
				panic(fmt.Sprintf("%s rank %d: patched product %v, fresh %v", plan, rank, got.Local, want.Local))
			}
			if !slices.Equal(b.m.Local, fresh.m.Local) || !reflect.DeepEqual(b.sets, fresh.sets) {
				panic(fmt.Sprintf("%s rank %d: patched resident differs from a fresh one", plan, rank))
			}
		})
		if err != nil {
			t.Fatal(err)
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
						got := stageB(plan, k, n, rank, entries)
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
								offs = append(offs, indexRows(blk, kb0, kb1))
							}
						case VarAC:
							kb0, kb1 := stageBounds(rank%inner/plan.P3, r.k0, r.k1, plan.P2)
							blocks, offs = [][]sparse.Entry[float64]{entries}, [][]int32{indexRows(entries, kb0, kb1)}
						default:
							blocks = make([][]sparse.Entry[float64], s)
							for _, e := range entries {
								st := partIn(e.J, r.n0, r.n1, s)
								blocks[st] = append(blocks[st], e)
							}
							kb0, kb1 := stageBounds(rank%plan.P3, r.k0, r.k1, plan.P3)
							for _, blk := range blocks {
								offs = append(offs, indexRows(blk, kb0, kb1))
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
