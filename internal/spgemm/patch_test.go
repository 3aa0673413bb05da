package spgemm

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
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

// setFor builds the cache entry Multiply's staging path would insert for
// matrix id under (plan, k×n) on rank.
func setFor[T any](id uint64, plan Plan, k, n, rank int, entries []sparse.Entry[T]) *cachedOperand {
	return &cachedOperand{operandKey: operandKey{id: id, plan: plan, k: k, n: n}, staged: stageB(plan, k, n, rank, entries)}
}

// entriesOf returns a cached set's resident block.
func entriesOf[T any](co *cachedOperand) []sparse.Entry[T] { return co.staged.(*stagedB[T]).entries }

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
	rng := rand.New(rand.NewSource(9))
	var global []sparse.Entry[float64]
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
	var edits []StationaryEdit[float64]
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
	var newGlobal []sparse.Entry[float64]
	for key, w := range edited {
		newGlobal = append(newGlobal, sparse.Entry[float64]{I: key[0], J: key[1], V: *w})
	}
	sortEntriesByCoord(newGlobal)

	const matID = 7
	for _, plan := range plans {
		for rank := 0; rank < plan.Procs(); rank++ {
			c := NewOperandCache()
			co := setFor(matID, plan, k, n, rank, stageForTest(plan, rank, k, n, global))
			c.sets[co.operandKey] = co
			PatchStationary(c, rank, matID, edits)
			got := entriesOf[float64](co)
			want := stageForTest(plan, rank, k, n, newGlobal)
			if len(got) != len(want) {
				t.Fatalf("%s rank %d: %d entries after patch, restage has %d", plan, rank, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("%s rank %d entry %d: patched %+v, restaged %+v", plan, rank, x, got[x], want[x])
				}
			}
		}
	}
}

// TestPatchStationaryIgnoresOtherMatrices: edits keyed to one matrix id
// must leave working sets of other matrices untouched.
func TestPatchStationaryIgnoresOtherMatrices(t *testing.T) {
	plan := Plan{P1: 1, P2: 1, P3: 2, X: RoleA, YZ: VarAB}
	before := []sparse.Entry[float64]{{I: 0, J: 0, V: 1}, {I: 1, J: 1, V: 2}}
	c := NewOperandCache()
	other := setFor(3, plan, 4, 4, 0, append([]sparse.Entry[float64](nil), before...))
	c.sets[other.operandKey] = other
	PatchStationary(c, 0, 99, []StationaryEdit[float64]{{I: 0, J: 0, Del: true}})
	got := entriesOf[float64](other)
	if len(got) != len(before) || got[0] != before[0] || got[1] != before[1] {
		t.Fatalf("patch for matrix 99 modified matrix 3's set: %+v", got)
	}
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
	got := PairSplice(cur, edits, func(i, j int32) bool { return true })
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
	none := PairSplice(cur, edits, func(i, j int32) bool { return false })
	if len(none) != len(cur) {
		t.Fatalf("unowned splice must keep the lifted base block, got %d entries", len(none))
	}
	for i, e := range cur {
		if none[i].V != (algebra.WeightPair{Old: e.V, New: e.V}) {
			t.Fatalf("entry %d not lifted: %+v", i, none[i])
		}
	}
}

// TestStagePairStationary: pair sets registered for every cached plan of
// the source matrix, under the destination id, equal to a PairSplice of
// each set with its own ownership filter; DropMatrix removes them and only
// them.
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
	const srcID, dstID = 5, 6
	for _, plan := range plans {
		for rank := 0; rank < plan.Procs(); rank++ {
			c := NewOperandCache()
			staged := stageForTest(plan, rank, k, n, global)
			src := setFor(srcID, plan, k, n, rank, staged)
			c.sets[src.operandKey] = src
			ops := StagePairStationary(c, rank, srcID, dstID, edits)
			co, ok := c.sets[operandKey{id: dstID, plan: plan, k: k, n: n}]
			if !ok {
				t.Fatalf("%s rank %d: pair set not registered", plan, rank)
			}
			got := entriesOf[algebra.WeightPair](co)
			owns := StationaryOwnership(plan, k, n)
			want := PairSplice(staged, edits, func(i, j int32) bool { return owns(rank, i, j) })
			if len(got) != len(want) {
				t.Fatalf("%s rank %d: %d pair entries, want %d", plan, rank, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("%s rank %d entry %d: %+v vs %+v", plan, rank, x, got[x], want[x])
				}
			}
			if ops != int64(len(got)) {
				t.Fatalf("%s rank %d: reported %d ops, wrote %d entries", plan, rank, ops, len(got))
			}
			DropMatrix(c, dstID)
			if _, ok := c.sets[operandKey{id: dstID, plan: plan, k: k, n: n}]; ok {
				t.Fatal("DropMatrix left the pair set resident")
			}
			if _, ok := c.sets[src.operandKey]; !ok {
				t.Fatal("DropMatrix removed the scalar source set")
			}
		}
	}
}

// TestCachedViewsStayCoherent drives a cache through random sequences of
// staging, PatchStationary, StagePairStationary and DropMatrix, and after
// every step checks each resident set — block, stage buckets and row
// offsets — against one staged from scratch out of an independent model of
// the matrix. A view that outlives a patch multiplies against the
// pre-patch matrix without any error: only the scores come out wrong. With
// no eviction the cache stays bounded by the plans alone — a matrix holds
// at most one set per plan at fixed dimensions — and DropMatrix leaves no
// pair set behind.
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
	const k, n, srcID, dstID = 19, 21, 11, 12
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for rank := 0; rank < 4; rank++ {
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
			c := NewOperandCache()
			// check compares every resident set with a from-scratch staging:
			// scalar sets of the model, pair sets of the model spliced with
			// pairEdits.
			check := func(step string, pairEdits []StationaryEdit[float64]) {
				t.Helper()
				for key, co := range c.sets {
					base := stageForTest(key.plan, rank, k, n, global())
					var want any = stageB(key.plan, k, n, rank, base)
					if key.id == dstID {
						owns := StationaryOwnership(key.plan, k, n)
						want = stageB(key.plan, k, n, rank, PairSplice(base, pairEdits, func(i, j int32) bool { return owns(rank, i, j) }))
					}
					if !reflect.DeepEqual(co.staged, want) {
						t.Fatalf("seed %d rank %d after %s: set %+v diverged from a fresh staging\n got %+v\nwant %+v", seed, rank, step, key, co.staged, want)
					}
				}
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0: // a multiply under some plan: hit, or stage
					plan := plans[rng.Intn(len(plans))]
					key := operandKey{id: srcID, plan: plan, k: k, n: n}
					if _, ok := c.sets[key]; !ok {
						c.sets[key] = setFor(srcID, plan, k, n, rank, stageForTest(plan, rank, k, n, global()))
					}
					check("stage", nil)
				case 1, 2:
					edits := randomEdits()
					for _, ed := range edits {
						if ed.Del {
							delete(model, [2]int32{ed.I, ed.J})
						} else {
							model[[2]int32{ed.I, ed.J}] = ed.V
						}
					}
					PatchStationary(c, rank, srcID, edits)
					check("patch", nil)
				case 3: // a fused region: pair sets staged, used, dropped
					edits := randomEdits()
					StagePairStationary(c, rank, srcID, dstID, edits)
					if got, want := len(CachedPlans(c, dstID)), len(CachedPlans(c, srcID)); got != want {
						t.Fatalf("seed %d rank %d: %d pair sets for %d scalar sets", seed, rank, got, want)
					}
					check("pair staging", edits)
					DropMatrix(c, dstID)
					if got := len(CachedPlans(c, dstID)); got != 0 {
						t.Fatalf("seed %d rank %d: %d pair sets survived DropMatrix", seed, rank, got)
					}
					check("drop", nil)
				}
				if got := len(CachedPlans(c, srcID)); got > len(plans) {
					t.Fatalf("seed %d rank %d: %d sets resident for %d plans", seed, rank, got, len(plans))
				}
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
					s := plan.Stages()
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
