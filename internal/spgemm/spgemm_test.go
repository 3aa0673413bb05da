package spgemm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// randomCOO builds a random float64 matrix with ~density fraction nonzeros.
func randomCOO(rows, cols int, density float64, seed int64) *sparse.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](rows, cols)
	target := int(float64(rows*cols) * density)
	for t := 0; t < target; t++ {
		coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1+rng.Float64())
	}
	return coo
}

var addF = algebra.Monoid[float64]{
	Identity: 0,
	Op:       func(a, b float64) float64 { return a + b },
	IsZero:   func(a float64) bool { return a == 0 },
}

func mulF(a, b float64) float64 { return a * b }

// checkPlan runs C = A·B distributed under the plan and compares against the
// sequential kernel.
func checkPlan(t *testing.T, plan Plan, m, k, n int, seed int64) {
	t.Helper()
	p := plan.Procs()
	cooA := randomCOO(m, k, 0.15, seed)
	cooB := randomCOO(k, n, 0.2, seed+1)
	wantA := sparse.FromCOO(cooA, addF)
	wantB := sparse.FromCOO(cooB, addF)
	want, _ := sparse.Mul(wantA, wantB, mulF, addF)

	mach := sim.New(p)
	results := make([]*sparse.CSR[float64], p)
	_, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		a := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(p), addF)
		b := NewStationary(distmat.FromGlobal(proc.Rank(), cooB, distmat.DistRowBlock(p, k), addF))
		c := Multiply(s, plan, a, b, mulF, addF, nil, nil)
		results[proc.Rank()] = distmat.Gather(proc.World(), c, addF)
	})
	if err != nil {
		t.Fatalf("plan %s: %v", plan, err)
	}
	for r, got := range results {
		if !sparse.Equal(want, got, func(a, b float64) bool { return a == b || abs(a-b) < 1e-9*(abs(a)+abs(b)) }) {
			t.Fatalf("plan %s: rank %d result differs from sequential (nnz %d vs %d)", plan, r, got.NNZ(), want.NNZ())
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMultiply2DVariants(t *testing.T) {
	for _, v := range []Variant{VarAB, VarAC, VarBC} {
		for _, grid := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 2}, {1, 4}} {
			plan := Plan{P1: 1, P2: grid[0], P3: grid[1], X: RoleA, YZ: v}
			t.Run(plan.String(), func(t *testing.T) {
				checkPlan(t, plan, 33, 27, 41, int64(grid[0]*100+grid[1]))
			})
		}
	}
}

func TestMultiply1DVariants(t *testing.T) {
	for _, x := range []Role{RoleA, RoleB, RoleC} {
		for _, p1 := range []int{2, 4} {
			plan := Plan{P1: p1, P2: 1, P3: 1, X: x, YZ: VarAB}
			t.Run(plan.String(), func(t *testing.T) {
				checkPlan(t, plan, 29, 31, 24, int64(p1)+int64(x))
			})
		}
	}
}

func TestMultiply3DVariants(t *testing.T) {
	for _, x := range []Role{RoleA, RoleB, RoleC} {
		for _, yz := range []Variant{VarAB, VarAC, VarBC} {
			plan := Plan{P1: 2, P2: 2, P3: 2, X: x, YZ: yz}
			t.Run(plan.String(), func(t *testing.T) {
				checkPlan(t, plan, 37, 29, 33, int64(x)*10+int64(yz))
			})
		}
	}
}

func TestMultiply3DAsymmetricGrids(t *testing.T) {
	for _, f := range [][3]int{{3, 2, 2}, {2, 3, 1}, {2, 1, 3}, {4, 2, 1}} {
		plan := Plan{P1: f[0], P2: f[1], P3: f[2], X: RoleB, YZ: VarBC}
		t.Run(plan.String(), func(t *testing.T) {
			checkPlan(t, plan, 26, 35, 31, int64(f[0]*f[1]*f[2]))
		})
	}
}

func TestMultiplyRectangularShortFat(t *testing.T) {
	// The MFBC shape: tiny row count (frontier) times square adjacency.
	for _, plan := range []Plan{
		{P1: 2, P2: 2, P3: 2, X: RoleB, YZ: VarAC},
		{P1: 4, P2: 1, P3: 2, X: RoleB, YZ: VarBC},
		{P1: 1, P2: 2, P3: 4, X: RoleA, YZ: VarAB},
	} {
		t.Run(plan.String(), func(t *testing.T) {
			checkPlan(t, plan, 5, 60, 60, int64(plan.P1))
		})
	}
}

func TestMultiplyEmptyOperand(t *testing.T) {
	plan := Plan{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB}
	mach := sim.New(4)
	_, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		a := &distmat.Mat[float64]{Rows: 10, Cols: 10, Dist: distmat.DistShard(4)}
		cooB := randomCOO(10, 10, 0.3, 5)
		b := NewStationary(distmat.FromGlobal(proc.Rank(), cooB, distmat.DistShard(4), addF))
		c := Multiply(s, plan, a, b, mulF, addF, nil, nil)
		if got := distmat.GlobalNNZ(proc.World(), c); got != 0 {
			panic(fmt.Sprintf("empty * B produced %d nonzeros", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyCachedStationary(t *testing.T) {
	// Multiplying twice against a cached stationary B must give identical
	// results and charge less communication the second time.
	plan := Plan{P1: 2, P2: 2, P3: 1, X: RoleB, YZ: VarAC}
	cooA := randomCOO(20, 30, 0.2, 9)
	cooB := randomCOO(30, 30, 0.2, 10)
	mach := sim.New(4)
	var costFirst, costSecond machine.Cost
	_, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		a := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(4), addF)
		b := NewStationary(distmat.FromGlobal(proc.Rank(), cooB, distmat.DistShard(4), addF))
		pre := proc.Cost()
		c1 := Multiply(s, plan, a, b, mulF, addF, nil, nil)
		mid := proc.Cost()
		c2 := Multiply(s, plan, a, b, mulF, addF, nil, nil)
		post := proc.Cost()
		g1 := distmat.Gather(proc.World(), c1, addF)
		g2 := distmat.Gather(proc.World(), c2, addF)
		if !sparse.Equal(g1, g2, func(x, y float64) bool { return x == y }) {
			panic("cached multiply changed the result")
		}
		if proc.Rank() == 0 {
			costFirst = machine.Cost{Bytes: mid.Bytes - pre.Bytes, Msgs: mid.Msgs - pre.Msgs}
			costSecond = machine.Cost{Bytes: post.Bytes - mid.Bytes, Msgs: post.Msgs - mid.Msgs}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if costSecond.Bytes >= costFirst.Bytes {
		t.Fatalf("caching did not reduce communication: first %v second %v", costFirst, costSecond)
	}
}

func TestSearchReturnsValidPlan(t *testing.T) {
	model := machine.DefaultModel()
	for _, p := range []int{1, 4, 16, 64} {
		pr := Problem{M: 64, K: 4096, N: 4096, NNZA: 2000, NNZB: 80000, BytesA: 24, BytesB: 16, BytesC: 24}
		plan := Search(p, pr, model, AnyPlan)
		if plan.Procs() != p {
			t.Fatalf("search(p=%d) returned plan %s with %d procs", p, plan, plan.Procs())
		}
		for _, cons := range []Constraint{Only1D, Only2D, Only3D} {
			cp := Search(p, pr, model, cons)
			if cp.Procs() != p {
				t.Fatalf("constrained search returned %s", cp)
			}
			switch cons {
			case Only1D:
				if cp.P2 != 1 || cp.P3 != 1 {
					t.Fatalf("Only1D returned %s", cp)
				}
			case Only2D:
				if cp.P1 != 1 {
					t.Fatalf("Only2D returned %s", cp)
				}
			case Only3D:
				if p > 1 && (cp.P1 == 1 || cp.P2*cp.P3 == 1) {
					t.Fatalf("Only3D returned %s", cp)
				}
			}
		}
	}
}

func TestSearchPrefersReplicationForSkewedOperands(t *testing.T) {
	// A huge stationary B against a tiny A: with generous memory the model
	// should exploit more than a flat 2D grid (the §5.3 configuration).
	model := machine.DefaultModel()
	pr := Problem{M: 32, K: 1 << 15, N: 1 << 15, NNZA: 4000, NNZB: 4 << 20, BytesA: 24, BytesB: 16, BytesC: 24}
	plan := Search(64, pr, model, AnyPlan)
	cost3D := Estimate(plan, pr, model)
	flat := Search(64, pr, model, Only2D)
	cost2D := Estimate(flat, pr, model)
	if cost3D > cost2D {
		t.Fatalf("search missed a cheaper plan: %s (%g) vs %s (%g)", plan, cost3D, flat, cost2D)
	}
}
