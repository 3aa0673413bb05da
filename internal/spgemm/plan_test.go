package spgemm

import (
	"testing"

	"repro/internal/distmat"
	"repro/internal/machine"
)

// inner2D is the layer-grid position (li, lj) of a coordinate pair for the
// given operand under the given variant, from the layer's local ranges and
// s stages, with every division done per entry: the definition the owner
// tables are filled by.
func inner2D(v Variant, role Role, p2, p3, s int, r ranges, i, j int32) (int, int) {
	switch v {
	case VarAB:
		switch role {
		case RoleA: // (i, k): rows blocked over p2, k staged mod p3
			return partIn(i, r.m0, r.m1, p2), partIn(j, r.k0, r.k1, s) % p3
		case RoleB: // (k, j): k staged mod p2, cols blocked over p3
			return partIn(i, r.k0, r.k1, s) % p2, partIn(j, r.n0, r.n1, p3)
		default: // C stationary block
			return partIn(i, r.m0, r.m1, p2), partIn(j, r.n0, r.n1, p3)
		}
	case VarAC:
		switch role {
		case RoleA: // (i, k): m staged mod p3, k blocked over p2
			return partIn(j, r.k0, r.k1, p2), partIn(i, r.m0, r.m1, s) % p3
		case RoleB: // stationary block (k→p2, n→p3)
			return partIn(i, r.k0, r.k1, p2), partIn(j, r.n0, r.n1, p3)
		default: // C: m staged mod p2, n blocked over p3
			return partIn(i, r.m0, r.m1, s) % p2, partIn(j, r.n0, r.n1, p3)
		}
	default: // VarBC
		switch role {
		case RoleA: // stationary block (m→p2, k→p3)
			return partIn(i, r.m0, r.m1, p2), partIn(j, r.k0, r.k1, p3)
		case RoleB: // (k, j): n staged mod p2, k blocked over p3
			return partIn(j, r.n0, r.n1, s) % p2, partIn(i, r.k0, r.k1, p3)
		default: // C: m blocked over p2, n staged mod p3
			return partIn(i, r.m0, r.m1, p2), partIn(j, r.n0, r.n1, s) % p3
		}
	}
}

// layerOf maps a coordinate on the fiber-split dimension to its layer: the
// definition the owner tables' layer offsets and hash agree with.
func layerOf(plan Plan, m, k, n int, i, kc, j int32, role Role) int {
	if plan.P1 <= 1 {
		return 0
	}
	switch plan.X {
	case RoleA: // split n
		if role == RoleA { // A is replicated: shard pseudo-randomly pre-replication
			return shard(i, kc, plan.P1)
		}
		return distmat.Part(j, n, plan.P1)
	case RoleB: // split m
		if role == RoleB {
			return shard(kc, j, plan.P1)
		}
		return distmat.Part(i, m, plan.P1)
	default: // RoleC: split k
		if role == RoleC {
			panic("spgemm: C has no input layer assignment under RoleC")
		}
		return distmat.Part(kc, k, plan.P1)
	}
}

// ownerByDefinition is the owner of coordinate (i, j) of operand role under
// plan, each entry's layer ranges derived afresh by layerRanges and placed
// by inner2D: the definition that the owner closures, which add up one
// table term per coordinate, must agree with.
func ownerByDefinition(plan Plan, m, k, n int, role Role, i, j int32) int {
	s := plan.stages()
	at := func(l int) int {
		li, lj := inner2D(plan.YZ, role, plan.P2, plan.P3, s, layerRanges(plan, m, k, n, l), i, j)
		return l*plan.P2*plan.P3 + li*plan.P3 + lj
	}
	switch {
	case role == RoleA:
		return at(layerOf(plan, m, k, n, i, j, -1, RoleA))
	case role == RoleB:
		return at(layerOf(plan, m, k, n, -1, i, j, RoleB))
	case plan.P1 <= 1:
		return at(0)
	case plan.X == RoleA:
		return at(distmat.Part(j, n, plan.P1))
	case plan.X == RoleB:
		return at(distmat.Part(i, m, plan.P1))
	}
	li, lj := inner2D(plan.YZ, RoleC, plan.P2, plan.P3, s, layerRanges(plan, m, k, n, 0), i, j)
	return ((li*plan.P3+lj)%plan.P1)*plan.P2*plan.P3 + li*plan.P3 + lj
}

// TestDistsPartitionCoordinates: for every plan shape, the generated A/B/C
// distributions map every coordinate to a valid rank, the one the
// definition gives, and the stationary-B membership test agrees with it for
// every rank. Besides a shape larger than every part count, a 6-row
// frontier — a fused apply's few dirty sources — and a shape with every
// dimension below 12 stages leave some parts, and some layers' parts,
// empty. The tables are built afresh, and drawn from one set kept across
// every plan and shape, as a stationary operand keeps its own across plans.
func TestDistsPartitionCoordinates(t *testing.T) {
	cached := make(ownerTables)
	for _, tables := range []ownerTables{nil, cached} {
		for _, shape := range [][3]int{{23, 31, 19}, {6, 31, 19}, {6, 7, 5}} {
			checkDistsPartition(t, shape[0], shape[1], shape[2], tables)
		}
	}
	if len(cached) == 0 {
		t.Fatal("no table was kept")
	}
}

func checkDistsPartition(t *testing.T, m, k, n int, tables ownerTables) {
	for _, f := range machine.Factorizations3(12) {
		for _, x := range []Role{RoleA, RoleB, RoleC} {
			for _, yz := range []Variant{VarAB, VarAC, VarBC} {
				plan := Plan{P1: f[0], P2: f[1], P3: f[2], X: x, YZ: yz}
				da, db, dc := dists(plan, m, k, n, tables)
				owns := stationaryOwnership(plan, k, n, tables)
				p, inner := plan.Procs(), plan.P2*plan.P3
				checkOwners := func(d distmat.Dist, role Role, rows, cols int) {
					for i := int32(0); i < int32(rows); i++ {
						for j := int32(0); j < int32(cols); j++ {
							r := d.Owner(i, j)
							if r < 0 || r >= p {
								t.Fatalf("%s: %s owner of (%d, %d) is %d, out of range", plan, role, i, j, r)
							}
							if want := ownerByDefinition(plan, m, k, n, role, i, j); r != want {
								t.Fatalf("%s: %s owner of (%d, %d) is %d, the definition gives %d", plan, role, i, j, r, want)
							}
						}
					}
				}
				checkOwners(da, RoleA, m, k)
				checkOwners(db, RoleB, k, n)
				checkOwners(dc, RoleC, m, n)
				for i := int32(0); i < int32(k); i++ {
					for j := int32(0); j < int32(n); j++ {
						owner := ownerByDefinition(plan, 1, k, n, RoleB, i, j)
						for rank := 0; rank < p; rank++ {
							want := owner == rank
							if plan.P1 > 1 && plan.X == RoleB {
								want = owner%inner == rank%inner
							}
							if owns(rank, i, j) != want {
								t.Fatalf("%s: rank %d holds B(%d, %d): %t, the definition says %t", plan, rank, i, j, !want, want)
							}
						}
					}
				}
				if da.Key == db.Key || da.Key == dc.Key {
					t.Fatalf("%s: distribution keys collide", plan)
				}
			}
		}
	}
}

// TestEstimateMonotonicity: more nonzeros never make a plan cheaper.
func TestEstimateMonotonicity(t *testing.T) {
	model := machine.DefaultModel()
	plan := Plan{P1: 2, P2: 2, P3: 2, X: RoleB, YZ: VarAC}
	small := Problem{M: 64, K: 1000, N: 1000, NNZA: 100, NNZB: 10000, BytesA: 24, BytesB: 16, BytesC: 24}
	big := small
	big.NNZA *= 10
	big.NNZB *= 10
	if Estimate(plan, big, model) < Estimate(plan, small, model) {
		t.Fatal("cost estimate decreased with more nonzeros")
	}
}

// TestEstimateReplicationAmortization: for a frontier-vs-adjacency shaped
// problem, a plan that replicates the small operand must beat the one that
// replicates the big operand in modeled cost.
func TestEstimateReplicationSkew(t *testing.T) {
	model := machine.DefaultModel()
	pr := Problem{M: 32, K: 1 << 14, N: 1 << 14, NNZA: 1000, NNZB: 1 << 20, BytesA: 24, BytesB: 16, BytesC: 24}
	replSmall := Plan{P1: 4, P2: 2, P3: 2, X: RoleA, YZ: VarAB}
	replBig := Plan{P1: 4, P2: 2, P3: 2, X: RoleB, YZ: VarAB}
	if Estimate(replSmall, pr, model) > Estimate(replBig, pr, model) {
		t.Fatal("replicating the tiny operand must be cheaper than replicating the adjacency")
	}
}

func TestPlanHelpers(t *testing.T) {
	plan := Plan{P1: 2, P2: 3, P3: 4, X: RoleC, YZ: VarBC}
	if plan.Procs() != 24 {
		t.Fatal("procs wrong")
	}
	if plan.stages() != 12 {
		t.Fatalf("stages = %d want lcm(3,4)=12", plan.stages())
	}
	if plan.String() == "" || RoleA.String() != "A" || VarAC.String() != "AC" {
		t.Fatal("stringers broken")
	}
}

func TestSearchDegenerateProcs(t *testing.T) {
	model := machine.DefaultModel()
	pr := Problem{M: 8, K: 100, N: 100, NNZA: 50, NNZB: 500, BytesA: 24, BytesB: 16, BytesC: 24}
	plan := Search(1, pr, model, AnyPlan)
	if plan.Procs() != 1 {
		t.Fatalf("p=1 search returned %s", plan)
	}
	// Prime p: only 1D and flat 2D shapes exist.
	plan = Search(7, pr, model, AnyPlan)
	if plan.Procs() != 7 {
		t.Fatalf("p=7 search returned %s", plan)
	}
}
