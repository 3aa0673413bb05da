// Fused single-region incremental applies. An evolving-graph apply needs
// the dependency contributions of the affected pivots on both sides of the
// edit: δ_old to subtract, δ_new to add. PR 4 ran them as two machine
// regions with a host-side operand patch in between, paying the latency
// term S twice. ApplyIncrementalCtx fuses everything into ONE region over the
// pair semiring (internal/algebra/pair.go): every matrix entry carries an
// (old, new) component pair, the stationary operand is the pair lift of
// the resident adjacency spliced with the batch diff, and the one sweep of
// dist.go, instantiated at two sides, advances both in lock-step — each
// superstep's collectives are paid once for the pair instead of once per
// side, so modeled S is comparable to a single run (iterations = max of
// the two sides, not their sum). This file holds only what is specific to
// the fused region: the source union, the diff scatter and the operand
// staging.
//
// The region's phases, attributed via machine.Proc.Phase:
//
//	diff   — rank 0 scatters each rank's share of the edge diff (the only
//	         modeled communication the patch itself needs)
//	patch  — each rank lifts its resident operands into region-local pair
//	         operands (spgemm.PairOf) and patches the resident ones to the
//	         post-batch topology, the splice charged as local γ-flops
//	sweep  — the two-sided MFBF/MFBr sweeps
//	reduce — one concatenated allreduce of both sides' accumulators
//
// Because the pair components' identities are exact absorbing elements and
// the local kernels fold equal-coordinate contributions stably, the old
// and new components of the fused result are bit-identical to what the two
// separate scalar regions produce — under forced plans and under automatic
// planning alike, because the sweep plans every multiplication per side
// (sidePlans, mulPerSide in dist.go).
package core

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// IncrementalResult is the outcome of one fused incremental region.
type IncrementalResult struct {
	OldBC []float64 // Σ_{s∈oldSources} δ_old(s,·) on the pre-batch topology
	NewBC []float64 // Σ_{s∈newSources} δ_new(s,·) on the post-batch topology
	Plan  spgemm.Plan
	Stats machine.RunStats // with per-phase attribution (diff/patch/sweep/reduce)

	Iterations int
	Batches    int
	// DualProducts counts the frontier products this region executed once
	// per side because the two sides' automatic plans diverged.
	DualProducts int
}

// ApplyIncrementalCtx runs one fused region: the old-side pivot re-runs
// against the still-resident pre-batch operands and the new-side re-runs
// against their patched successors execute simultaneously over the pair
// semiring, with the patch itself performed inside the region (diff
// scattered as a modeled collective, splice charged as local γ-flops). On
// success the session's resident operands encode newG, exactly as a
// Patch + Run sequence would leave them. On error the resident state is
// indeterminate; callers should drop and rebuild the session.
//
// newG must have the session's vertex count (vertex growth changes the
// operand dimensions; callers fall back to the two-region path). diffs is
// the effective edge diff between the session's topology and newG, as for
// Patch. newAdj is newG's adjacency (rebuilt when nil). When ctx carries
// an obs span, the fused region's modeled-vs-measured stats are attached
// as a machine.region child span with per-phase grandchildren.
func (s *DistSession) ApplyIncrementalCtx(ctx context.Context, oldSources []int32, newG *graph.Graph, newAdj *sparse.CSR[float64], diffs []EdgeDiff, newSources []int32) (*IncrementalResult, error) {
	if newG.N != s.g.N {
		return nil, fmt.Errorf("core: fused apply needs a fixed vertex set (%d → %d); use Reset + Run", s.g.N, newG.N)
	}
	if newAdj == nil {
		newAdj = newG.Adjacency()
	}
	oldG, oldAdj := s.g, s.adjCSR
	directed := newG.Directed
	n := newG.N
	if len(diffs) == 0 && len(oldSources) == 0 && len(newSources) == 0 {
		// Structural no-op: nothing to patch, nothing to sweep.
		s.g, s.adjCSR = newG, newAdj
		return &IncrementalResult{OldBC: make([]float64, n), NewBC: make([]float64, n)}, nil
	}

	for _, side := range [][]int32{oldSources, newSources} {
		if err := CheckSources(n, side); err != nil {
			return nil, err
		}
	}
	sources, inOld, inNew := unionSources(oldSources, newSources, n)
	nb := Options{Batch: s.opt.Batch}.batchFor(n)
	if len(sources) > 0 && len(sources) < nb {
		nb = len(sources)
	}

	mach := transportFor(s.p, s.opt)
	// One planner per side, with exactly the inputs the side's scalar region
	// would have used (its own adjacency count, the scalar wire sizes).
	plOld, plNew := s.planner(mach, oldG), s.planner(mach, newG)

	// Rank 0's scatter payload: every rank's share of the edge diff (the
	// diffs whose derived adjacency coordinates one of the rank's resident
	// operands holds). Prepared host-side from rank 0's residents — the
	// data the root node of a real machine would hold.
	parts := s.diffShares(diffs, directed)

	out, err := sweepRegion(s, mach, pairAlgebra(), []planner{plOld, plNew},
		[]*sparse.CSR[float64]{oldAdj, newAdj}, [][]bool{inOld, inNew}, sources, nb,
		func(proc *machine.Proc, rk *distRank) (aPair, atPair *spgemm.Stationary[algebra.WeightPair]) {
			// Receive this rank's diff share via the modeled collective.
			proc.Phase(machine.PhaseDiff)
			myDiffs := machine.Scatter(proc.World(), 0, parts)

			// Lift the pair operands from the residents + diff — before the
			// patch, which they must not see — then advance the residents to
			// the post-batch topology, charging the splice work as local flops.
			proc.Phase(machine.PhasePatch)
			rank := proc.Rank()
			editsA := adjacencyEdits(directed, myDiffs, false)
			editsAt := adjacencyEdits(directed, myDiffs, true)
			aPair, opsA := spgemm.PairOf(rk.a, rank, editsA)
			atPair, opsAt := spgemm.PairOf(rk.at, rank, editsAt)
			proc.AddFlops(opsA + opsAt + rk.a.Patch(rank, editsA) + rk.at.Patch(rank, editsAt))
			return aPair, atPair
		})
	if err != nil {
		return nil, err
	}
	s.g, s.adjCSR = newG, newAdj
	recordRegionSpan(ctx, "fused-apply", s.p, out)
	return &IncrementalResult{
		OldBC: out.bc[:n:n], NewBC: out.bc[n:],
		Plan:  plNew.planFor(nil, nb, int64(float64(nb)*newG.AvgDegree()), multpathBytes),
		Stats: out.stats, Iterations: out.iters, Batches: out.batches, DualProducts: out.split,
	}, nil
}

// unionSources merges two ascending source lists and returns per-vertex
// membership masks. The fused frontier has one row per union source; a
// side's component is seeded only for its members.
func unionSources(oldS, newS []int32, n int) ([]int32, []bool, []bool) {
	inOld := make([]bool, n)
	inNew := make([]bool, n)
	out := make([]int32, 0, len(oldS)+len(newS))
	x, y := 0, 0
	for x < len(oldS) || y < len(newS) {
		var v int32
		switch {
		case y >= len(newS) || (x < len(oldS) && oldS[x] < newS[y]):
			v = oldS[x]
			x++
		case x >= len(oldS) || newS[y] < oldS[x]:
			v = newS[y]
			y++
		default:
			v = oldS[x]
			x++
			y++
		}
		out = append(out, v)
	}
	for _, v := range oldS {
		inOld[v] = true
	}
	for _, v := range newS {
		inNew[v] = true
	}
	return out, inOld, inNew
}

// diffShares computes, per destination rank, the subset of the edge diff
// whose derived adjacency-matrix coordinates (for A or Aᵀ, both edge
// orientations for undirected graphs) some resident operand of that rank
// holds. Rank 0's operands answer for every rank.
func (s *DistSession) diffShares(diffs []EdgeDiff, directed bool) [][]EdgeDiff {
	parts := make([][]EdgeDiff, s.p)
	a, at := s.ranks[0].a, s.ranks[0].at
	for _, d := range diffs {
		coords := [][2]int32{{d.U, d.V}}
		if !directed {
			coords = append(coords, [2]int32{d.V, d.U})
		}
		for r := 0; r < s.p; r++ {
			for _, c := range coords {
				// Both A's (i, j) and Aᵀ's (j, i) coordinates of this edge.
				if a.Holds(r, c[0], c[1]) || at.Holds(r, c[1], c[0]) {
					parts[r] = append(parts[r], d)
					break
				}
			}
		}
	}
	return parts
}
