package spgemm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// productChain multiplies c's frontier by its adjacency under plan, then
// each product by the adjacency again, links products in all, each fed
// back as the next one's A operand, through one accumulator per rank kept
// across the chain (kept) or a fresh one per product. It returns each
// product's blocks by rank as formed and, for all but the last, as they
// stand once the next product has been formed.
func productChain[V, W any](t *testing.T, c screenCase[V, W], plan Plan, workers, links int, kept bool) (formed, after [][][]sparse.Entry[V]) {
	t.Helper()
	p := plan.Procs()
	formed, after = make([][][]sparse.Entry[V], links), make([][][]sparse.Entry[V], links)
	for x := range formed {
		formed[x], after[x] = make([][]sparse.Entry[V], p), make([][]sparse.Entry[V], p)
	}
	_, err := sim.New(p).Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		s.Workers = workers
		a, b, _ := rankOperands(proc, s, c, plan)
		var acc Accumulator[V]
		var last []sparse.Entry[V]
		for x := 0; x < links; x++ {
			through := &acc
			if !kept {
				through = new(Accumulator[V])
			}
			a = Multiply(s, plan, a, b, c.f, c.add, nil, through)
			formed[x][proc.Rank()] = slices.Clone(a.Local)
			if x > 0 {
				after[x-1][proc.Rank()] = slices.Clone(last)
			}
			last = a.Local
		}
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", c.name, plan, err)
	}
	return formed, after
}

// checkProductChain holds c's chain of products through a kept accumulator
// to Multiply's storage contract under every candidate plan of p
// processors, and reports how many of the plans place A as they leave C.
func checkProductChain[V, W any](t *testing.T, p int, c screenCase[V, W]) (aliased int) {
	const links = 4
	m, n := c.frontier.Rows, c.adj.Cols
	for _, plan := range candidatesFor(p, AnyPlan) {
		da, _, dc := Dists(plan, m, n, n)
		same := true
		for i := int32(0); i < int32(m); i++ {
			for j := int32(0); j < int32(n); j++ {
				same = same && da.Owner(i, j) == dc.Owner(i, j)
			}
		}
		if same {
			aliased++
		}
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s %s workers=%d", c.name, plan, workers)
			formed, after := productChain(t, c, plan, workers, links, true)
			fresh, _ := productChain(t, c, plan, workers, links, false)
			for x := 0; x < links; x++ {
				if !bytes.Equal(entryBits(t, formed[x]...), entryBits(t, fresh[x]...)) {
					t.Errorf("%s: product %d of the chain through a kept accumulator differs from the one through fresh storage", name, x+1)
				}
				if x+1 < links && !bytes.Equal(entryBits(t, after[x]...), entryBits(t, formed[x]...)) {
					t.Errorf("%s: product %d changed when product %d was formed", name, x+1, x+2)
				}
			}
		}
	}
	return aliased
}

// TestProductValidThroughNextMultiply: Multiply's storage contract for a
// caller's accumulator — C lives in its storage and stays valid until the
// second product after it — under every candidate plan at p ∈ {4, 6}, with
// one and three workers per rank, on the forward products of a weighted
// mesh and its backward products. A chain of four
// products, each fed back as the next one's A operand as the forward sweep
// feeds its screened product back as the next frontier, gives through one
// kept accumulator, product by product and byte for byte, what it gives
// through a fresh accumulator per product, and each product is unchanged
// once the next one has been formed. Some plans (the 1D ones that replicate
// B) place A as they leave C: there every rank keeps its product as the
// next A operand, and the next product is formed while the kernel reads
// the storage of the one before.
func TestProductValidThroughNextMultiply(t *testing.T) {
	mesh := graph.Grid2D(6, 6, 5, 2)
	mesh.Name = "mesh-6x6"
	cs := screenCases(mesh, 8)
	for _, p := range []int{4, 6} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			fwd := checkProductChain(t, p, cs.fwd)
			back := checkProductChain(t, p, cs.back)
			if fwd == 0 || back == 0 {
				t.Errorf("no candidate plan places A as it leaves C (forward %d, backward %d): the chain never feeds a product back in its own storage", fwd, back)
			}
		})
	}
}
