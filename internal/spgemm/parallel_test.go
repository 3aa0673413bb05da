package spgemm

import (
	"testing"

	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// checkPlanWorkers runs the distributed multiply with per-rank worker
// parallelism and compares bit-exactly against the same multiply run with
// sequential local kernels: the worker knob must never change results.
func checkPlanWorkers(t *testing.T, plan Plan, m, k, n int, seed int64, workers int) {
	t.Helper()
	p := plan.Procs()
	cooA := randomCOO(m, k, 0.15, seed)
	cooB := randomCOO(k, n, 0.2, seed+1)

	run := func(workers int) *sparse.CSR[float64] {
		var out *sparse.CSR[float64]
		mach := sim.New(p)
		_, err := mach.Run(func(proc *machine.Proc) {
			s := NewSession(proc)
			s.Workers = workers
			a := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(p), addF)
			b := NewStationary(distmat.FromGlobal(proc.Rank(), cooB, distmat.DistRowBlock(p, k), addF))
			c := Multiply(s, plan, a, b, mulF, addF, nil, nil)
			g := distmat.Gather(proc.World(), c, addF)
			if proc.Rank() == 0 {
				out = g
			}
		})
		if err != nil {
			t.Fatalf("plan %s workers=%d: %v", plan, workers, err)
		}
		return out
	}

	want := run(1)
	got := run(workers)
	if !sparse.Equal(want, got, func(a, b float64) bool { return a == b }) {
		t.Fatalf("plan %s: workers=%d result differs from sequential", plan, workers)
	}
}

// TestMultiplyWorkersInvariant sweeps representative plans from every
// variant family with multi-worker local kernels.
func TestMultiplyWorkersInvariant(t *testing.T) {
	plans := []Plan{
		{P1: 1, P2: 1, P3: 1, X: RoleA, YZ: VarAB}, // p=1: the pure local kernel
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAC},
		{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarBC},
		{P1: 2, P2: 2, P3: 1, X: RoleB, YZ: VarAC},
		{P1: 2, P2: 1, P3: 2, X: RoleC, YZ: VarAB},
		{P1: 4, P2: 1, P3: 1, X: RoleA, YZ: VarAB},
	}
	for _, plan := range plans {
		for _, w := range []int{2, 4} {
			t.Run(plan.String(), func(t *testing.T) {
				checkPlanWorkers(t, plan, 48, 56, 52, int64(plan.Procs()), w)
			})
		}
	}
}

// TestCacheKeyDistinguishesMatrices: two residents multiplied through one
// session under one plan and shape must each be multiplied as themselves:
// neither may find the other's staged working set.
func TestCacheKeyDistinguishesMatrices(t *testing.T) {
	plan := Plan{P1: 1, P2: 2, P3: 2, X: RoleA, YZ: VarAB}
	const p = 4
	cooA := randomCOO(20, 30, 0.2, 21)
	cooB1 := randomCOO(30, 25, 0.2, 22)
	cooB2 := randomCOO(30, 25, 0.2, 23)

	// Sequential references.
	a := sparse.FromCOO(cooA, addF)
	b1 := sparse.FromCOO(cooB1, addF)
	b2 := sparse.FromCOO(cooB2, addF)
	want1, _ := sparse.Mul(a, b1, mulF, addF)
	want2, _ := sparse.Mul(a, b2, mulF, addF)

	mach := sim.New(p)
	var got1, got2 *sparse.CSR[float64]
	_, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		da := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(p), addF)
		db1 := NewStationary(distmat.FromGlobal(proc.Rank(), cooB1, distmat.DistShard(p), addF))
		db2 := NewStationary(distmat.FromGlobal(proc.Rank(), cooB2, distmat.DistShard(p), addF))
		c1 := Multiply(s, plan, da, db1, mulF, addF, nil, nil)
		c2 := Multiply(s, plan, da, db2, mulF, addF, nil, nil) // same session, same shape, different B
		g1 := distmat.Gather(proc.World(), c1, addF)
		g2 := distmat.Gather(proc.World(), c2, addF)
		if proc.Rank() == 0 {
			got1, got2 = g1, g2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eq := func(a, b float64) bool { return a == b || abs(a-b) < 1e-9*(abs(a)+abs(b)) }
	if !sparse.Equal(want1, got1, eq) {
		t.Fatal("first cached multiply wrong")
	}
	if !sparse.Equal(want2, got2, eq) {
		t.Fatal("second multiply hit the first resident's working set")
	}
}
