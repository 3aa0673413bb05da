// Package spgemm implements the communication-efficient distributed sparse
// matrix multiplication of the paper's §5.2 on the simulated machine: the
// three 1D variants, the three 2D SUMMA-like variants with lcm(pr,pc)
// stages, and the nine 3D variants obtained by nesting a 1D algorithm over
// the fiber dimension of a 2D algorithm — together with the analytic cost
// model used to search the space of decompositions automatically, as CTF
// does (§6.2). A caller that knows which products cannot matter may hand
// Multiply a screen to keep them out of the local kernel. A caller that
// keeps an accumulator has every product fold by column into it; only the
// products of callers without one, the CombBLAS-style baseline's, are
// sorted.
package spgemm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
)

// Role names the operand handled by the 1D (fiber) dimension of a 3D plan:
// RoleA and RoleB are replicated across layers, RoleC is reduced.
type Role int

const (
	RoleA Role = iota
	RoleB
	RoleC
)

func (r Role) String() string { return [...]string{"A", "B", "C"}[r] }

// Variant names the 2D algorithm executed within each layer: the stationary
// operand is the one *not* named (AB keeps C in place, AC keeps B, BC keeps
// A).
type Variant int

const (
	VarAB Variant = iota
	VarAC
	VarBC
)

func (v Variant) String() string { return [...]string{"AB", "AC", "BC"}[v] }

// Plan is one point in the decomposition search space: a processor grid
// p1×p2×p3 (p1 layers of p2×p3 grids), the fiber role, and the layer
// variant. p1=1 gives a pure 2D algorithm; p2=p3=1 gives a pure 1D
// algorithm; all 1 is a single-processor multiply.
type Plan struct {
	P1, P2, P3 int
	X          Role
	YZ         Variant
}

func (p Plan) String() string {
	return fmt.Sprintf("%dx%dx%d/X=%s/YZ=%s", p.P1, p.P2, p.P3, p.X, p.YZ)
}

// Procs returns the total processor count of the plan.
func (p Plan) Procs() int { return p.P1 * p.P2 * p.P3 }

// stages returns the 2D stage count lcm(p2, p3).
func (p Plan) stages() int { return machine.LCM(p.P2, p.P3) }

// Problem describes one multiplication C(m×n) = A(m×k)·B(k×n) for cost
// estimation.
type Problem struct {
	M, K, N                int
	NNZA, NNZB             int64
	NNZC, Ops              int64 // estimates; ≤0 triggers the uniform-random model of §5.2
	BytesA, BytesB, BytesC int64 // per-entry wire sizes
}

// fillEstimates applies the paper's uniform-random sparsity model:
// ops(A,B) ≈ nnz(A)·nnz(B)/k and nnz(C) ≈ min(m·n, ops).
func (pr *Problem) fillEstimates() {
	if pr.Ops <= 0 {
		k := int64(pr.K)
		if k == 0 {
			k = 1
		}
		pr.Ops = pr.NNZA * pr.NNZB / k
		if pr.Ops < pr.NNZA {
			pr.Ops = pr.NNZA
		}
	}
	if pr.NNZC <= 0 {
		mn := int64(pr.M) * int64(pr.N)
		pr.NNZC = pr.Ops
		if mn < pr.NNZC {
			pr.NNZC = mn
		}
	}
}

// Estimate models the execution time of the plan in seconds under the α–β–γ
// model, following §5.2.3's W_{X,YZ}: a fiber term β·nnz(X)/(p2·p3) +
// α·log p1 for replication/reduction of X, plus the 2D term
// W_YZ = α·lcm(p2,p3)·(log p2 + log p3) + β·(nnz(Y)/p2 + nnz(Z)/p3) on the
// layer slices, plus γ·ops/p for the (load-balanced) local computation.
func Estimate(p Plan, pr Problem, model machine.CostModel) float64 {
	pr.fillEstimates()
	return estimate(p, &pr, model)
}

// estimate is Estimate for a problem whose estimates are filled.
func estimate(p Plan, pr *Problem, model machine.CostModel) float64 {
	procs := float64(p.Procs())
	layer := float64(p.P2 * p.P3)

	// Layer-slice nonzero counts depend on which dimension the fiber splits.
	fA, fB, fC := 1.0, 1.0, 1.0
	var fiberBytes float64
	if p.P1 > 1 {
		switch p.X {
		case RoleA: // replicate A; split n
			fB, fC = 1/float64(p.P1), 1/float64(p.P1)
			fiberBytes = float64(pr.NNZA*pr.BytesA) / layer
		case RoleB: // replicate B; split m
			fA, fC = 1/float64(p.P1), 1/float64(p.P1)
			fiberBytes = float64(pr.NNZB*pr.BytesB) / layer
		case RoleC: // split k; reduce C
			fA, fB = 1/float64(p.P1), 1/float64(p.P1)
			fiberBytes = 2 * float64(pr.NNZC*pr.BytesC) / layer
		}
	}
	fiber := model.Beta*fiberBytes + model.Alpha*2*float64(machine.LogMsgs(p.P1))

	var bw float64
	nnzA := float64(pr.NNZA*pr.BytesA) * fA
	nnzB := float64(pr.NNZB*pr.BytesB) * fB
	nnzC := float64(pr.NNZC*pr.BytesC) * fC
	switch p.YZ {
	case VarAB:
		bw = nnzA/float64(p.P2) + nnzB/float64(p.P3)
	case VarAC:
		bw = nnzA/float64(p.P2) + nnzC/float64(p.P3)
	case VarBC:
		bw = nnzB/float64(p.P2) + nnzC/float64(p.P3)
	}
	stages := float64(p.stages())
	lat := stages * 2 * float64(machine.LogMsgs(p.P2)+machine.LogMsgs(p.P3))
	twoD := model.Beta*2*bw + model.Alpha*lat

	comp := model.Gamma * float64(pr.Ops) / procs
	return fiber + twoD + comp
}

// Constraint restricts the plan search, used by the decomposition ablation.
type Constraint int

const (
	AnyPlan Constraint = iota
	Only1D             // p2 = p3 = 1
	Only2D             // p1 = 1
	Only3D             // p1, and p2*p3, both > 1
)

// candidates memoises the admissible plans per (p, Constraint) in
// enumeration order — the order ties break in: the plan search runs for
// every multiplication of every round, always over the same list.
var candidates sync.Map // [2]int{p, Constraint} → []Plan

func candidatesFor(p int, cons Constraint) []Plan {
	key := [2]int{p, int(cons)}
	if c, ok := candidates.Load(key); ok {
		return c.([]Plan)
	}
	var out []Plan
	for _, f := range machine.Factorizations3(p) {
		p1, p2, p3 := f[0], f[1], f[2]
		switch cons {
		case Only1D:
			if p2 != 1 || p3 != 1 {
				continue
			}
		case Only2D:
			if p1 != 1 {
				continue
			}
		case Only3D:
			if p > 1 && (p1 == 1 || p2*p3 == 1) {
				continue
			}
		}
		for _, x := range []Role{RoleA, RoleB, RoleC} {
			if p1 == 1 && x != RoleA {
				continue // X unused on a single layer: avoid duplicate plans
			}
			for _, yz := range []Variant{VarAB, VarAC, VarBC} {
				if p2*p3 == 1 && yz != VarAB {
					continue // variant irrelevant on a 1×1 layer grid
				}
				out = append(out, Plan{P1: p1, P2: p2, P3: p3, X: x, YZ: yz})
			}
		}
	}
	candidates.Store(key, out)
	return out
}

// Search returns the minimum-estimated-cost plan for the problem on p
// processors, scanning all grid factorizations, fiber roles, and layer
// variants (the automatic decomposition selection of §6.2). The search is
// deterministic, so every processor arrives at the same plan.
func Search(p int, pr Problem, model machine.CostModel, cons Constraint) Plan {
	pr.fillEstimates()
	best := Plan{P1: 1, P2: 1, P3: p, X: RoleC, YZ: VarAB}
	bestCost := math.Inf(1)
	for _, cand := range candidatesFor(p, cons) {
		if c := estimate(cand, &pr, model); c < bestCost {
			bestCost = c
			best = cand
		}
	}
	return best
}
