package spgemm

import (
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
	_, db, _ := Dists(plan, 1, k, n)
	group := plan.Procs()
	if plan.P1 > 1 && plan.X == RoleB {
		group = plan.P2 * plan.P3
	}
	var out []sparse.Entry[float64]
	for _, e := range global {
		if db.Owner(e.I, e.J)%group == rank%group {
			out = append(out, e)
		}
	}
	sortEntriesByCoord(out)
	return out
}

// residentFor builds what rank holds of a k×n matrix with entries global on
// a p-rank machine before any multiply: its block in the shard distribution.
func residentFor(p, rank, k, n int, global []sparse.Entry[float64]) *Stationary[float64] {
	return NewStationary(&distmat.Mat[float64]{Rows: k, Cols: n, Dist: distmat.DistShard(p), Local: shardOf(p, rank, global)})
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

// TestChargeStageIsMultiplysStaging: ChargeStage charges on every rank
// exactly the collectives of a multiply's staging — which under the
// p×1×1/X=B plan leaves the whole matrix on every rank — and keeps no set.
func TestChargeStageIsMultiplysStaging(t *testing.T) {
	const k, n = 17, 23
	global := randomMatrix(5, k, n)
	for _, plan := range []Plan{
		{P1: 4, P2: 1, P3: 1, X: RoleB, YZ: VarAB},
		{P1: 2, P2: 1, P3: 2, X: RoleB, YZ: VarAC},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
	} {
		p := plan.Procs()
		staged, charged := make([]*Stationary[float64], p), make([]*Stationary[float64], p)
		for rank := range staged {
			staged[rank] = residentFor(p, rank, k, n, global)
			charged[rank] = residentFor(p, rank, k, n, global)
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
			want := stageB(plan, k, n, rank, stageForTest(plan, rank, k, n, global))
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

// randomMatrix draws a k×n matrix of 60 entries, sorted.
func randomMatrix(seed int64, k, n int) []sparse.Entry[float64] {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int32]bool{}
	var global []sparse.Entry[float64]
	for len(global) < 60 {
		i, j := int32(rng.Intn(k)), int32(rng.Intn(n))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		global = append(global, sparse.Entry[float64]{I: i, J: j, V: 1 + rng.Float64()})
	}
	sortEntriesByCoord(global)
	return global
}

// TestCachedViewsStayCoherent drives every rank's resident through a random
// sequence of multiplies on the machine, each under a plan drawn from a
// list — a warm hit, or a first staging — and after every step checks the
// block and each set — block, stage buckets and row offsets — against ones
// built from scratch. Where a plan's B distribution is the block's own,
// nothing moves and the set is the block's entries themselves, so a
// staging that wrote over storage it shares would show here. With no
// eviction the resident stays bounded by the plans alone.
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
	const m, k, n, p = 9, 19, 21, 4
	cooA := randomCOO(m, k, 0.3, 6)
	for seed := int64(1); seed <= 6; seed++ {
		global := randomMatrix(seed, k, n)
		cooB := sparse.NewCOO[float64](k, n)
		for _, e := range global {
			cooB.Append(e.I, e.J, e.V)
		}
		residents := make([]*Stationary[float64], p)
		for rank := range residents {
			residents[rank] = NewStationary(distmat.FromGlobal(rank, cooB, distmat.DistShard(p), addF))
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 20; step++ {
			plan := plans[rng.Intn(len(plans))]
			if _, err := sim.New(p).Run(func(proc *machine.Proc) {
				rank := proc.Rank()
				Multiply(NewSession(proc), plan, distmat.FromGlobal(rank, cooA, distmat.DistShard(p), addF), residents[rank], mulF, addF, nil, nil)
			}); err != nil {
				t.Fatal(err)
			}
			for rank, b := range residents {
				if !slices.Equal(b.m.Local, shardOf(p, rank, global)) {
					t.Fatalf("seed %d rank %d step %d: the block diverged from the rank's shard", seed, rank, step)
				}
				for plan, set := range b.sets {
					if want := stageB(plan, k, n, rank, stageForTest(plan, rank, k, n, global)); !reflect.DeepEqual(set, want) {
						t.Fatalf("seed %d rank %d step %d: set %s diverged from a fresh staging\n got %+v\nwant %+v", seed, rank, step, plan, set, want)
					}
				}
				if got := len(b.sets); got > len(plans) {
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
