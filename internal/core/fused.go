// Incremental applies, swept by source. An evolving-graph apply needs the
// dependency contributions of the affected pivots on both sides of the
// edit: δ_old to subtract, δ_new to add. ApplyIncrementalCtx computes both
// in ONE machine region under the 1D decomposition of §5.2 that replicates
// the adjacency, p×1×1/X=B: every rank holds all of A (and Aᵀ), so the
// frontier partitions by source rows and a whole MFBF/MFBr sweep of a
// rank's sources needs no communication at all (§6.2). The region takes
// the source list in rounds of p·Batch sources; in each, every rank runs
// the CSR kernel of seq.go over a contiguous block of at most Batch of them
// twice — over the pre-batch adjacency and over the post-batch one — which
// per source is exactly Brandes' edge visits. The region's supersteps
// follow the rounds, however many BF rounds the sweeps take, and a rank's
// dependency rows are one round's, O(Batch·n). Run's entry-list sweep
// (dist.go) stays the route of one-shot computations and full recomputes.
//
// The kernel reads the session's adjacency CSRs, which every process holds
// (the replicated-input convention reset cuts the shards by; on a tcp mesh
// each process's own engine replica). The model accounts for that copy as
// the resident operands' working set under the route's plan would be:
// staging it is charged once per session (and again after a rebuild), as
// staging a p×1×1/X=B set is, and every later apply's edit of it is
// charged as the splice of that set would be. The CSR stands for the set,
// so no rank holds an entry-list copy of it.
//
// The region's phases, attributed via machine.Proc.Phase:
//
//	diff   — rank 0 scatters each rank's share of the edge diff (every
//	         edit, once the ranks hold the replica)
//	patch  — each rank splices its share into its resident operands, and
//	         into the replica, charged as local γ-flops; the first apply
//	         of a session charges the replica's staging instead
//	sweep  — the CSR kernel over the rank's sources of a round on both
//	         sides, its products charged as flops
//	reduce — per round, an all-to-all hands every rank's dependency rows,
//	         cut by column block, to the block's owner, which folds them in
//	         source order; one allreduce of both sides' n-vectors closes
//
// Because each vertex's rows fold in source order, as SweepSources folds
// them, OldBC and NewBC are bit for bit what SweepSources gives over each
// side's adjacency, at every rank count.
package core

import (
	"context"
	"slices"

	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// IncrementalResult is the outcome of one incremental apply's region.
type IncrementalResult struct {
	OldBC []float64        // Σ_{s∈sources} δ_old(s,·) on the pre-batch topology (0 on added vertices)
	NewBC []float64        // Σ_{s∈sources} δ_new(s,·) on the post-batch topology
	Plan  spgemm.Plan      // the route's decomposition, p×1×1/X=B/YZ=AB
	Stats machine.RunStats // with per-phase attribution (diff/patch/sweep/reduce)
}

// sourcePlan is the decomposition of the source route at p ranks: B — the
// adjacency — replicated on every one of p layers, each a 1×1 grid.
func sourcePlan(p int) spgemm.Plan {
	return spgemm.Plan{P1: p, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}
}

// ApplyIncrementalCtx runs one region that sweeps sources over the
// session's topology (the old side) and over newG (the new side), with the
// patch itself performed inside the region (diff scattered as a modeled
// collective, splice charged as local γ-flops). On success the session's
// resident operands encode newG, exactly as a Patch + Run sequence would
// leave them. On error the resident state is indeterminate; callers should
// drop and rebuild the session.
//
// When newG has more vertices than the session's topology, the residents
// are first rebuilt (reset) on that topology padded with the new vertices,
// isolated, so the old side reads 0 on them. diffs is the effective edge
// diff between the session's topology and newG, as for Patch. newAdj is
// newG's adjacency and newAt its transpose, each built when nil. ctx ends
// the region as in RunCtx, and the kernel also checks it before every
// source row. When ctx carries an obs span, the region's
// modeled-vs-measured stats are attached as a machine.region child span
// with per-phase grandchildren.
func (s *DistSession) ApplyIncrementalCtx(ctx context.Context, sources []int32, newG *graph.Graph, newAdj, newAt *sparse.CSR[float64], diffs []EdgeDiff) (*IncrementalResult, error) {
	n := newG.N
	if err := CheckSources(n, sources); err != nil {
		return nil, err
	}
	if n > s.g.N {
		padded := s.g.Clone()
		padded.N = n
		s.reset(padded, nil)
	}
	if newAdj == nil {
		newAdj, newAt = newG.Adjacency(), nil
	}
	if len(diffs) == 0 && len(sources) == 0 {
		// Structural no-op: nothing to patch, nothing to sweep.
		s.setTopology(newG, newAdj, newAt)
		return &IncrementalResult{OldBC: make([]float64, n), NewBC: make([]float64, n)}, nil
	}
	directed := newG.Directed
	switch {
	case !directed:
		newAt = newAdj // an undirected Aᵀ is A
	case newAt == nil:
		newAt = sparse.Transpose(newAdj)
	}
	adj := [2][2]*sparse.CSR[float64]{{s.adjCSR, s.transpose()}, {newAdj, newAt}}
	plan := sourcePlan(s.p)
	stage, splice := !s.replica, int64(newAdj.NNZ())
	// Rank 0's scatter payload: every rank's share of the edge diff (the
	// diffs whose derived adjacency coordinates one of the rank's resident
	// operands holds). Prepared host-side from rank 0's residents — the
	// data the root node of a real machine would hold.
	parts := s.diffShares(diffs, directed)
	// Each round sweeps p·nb sources, at most nb of them on a rank.
	nb := Options{Batch: s.opt.Batch}.batchFor(len(sources))

	out := &regionOutcome{bc: make([]float64, 2*n)}
	stats, err := s.region(ctx, func(proc *machine.Proc, rk *distRank) {
		world, rank := proc.World(), proc.Rank()
		proc.Phase(machine.PhaseDiff)
		myDiffs := machine.Scatter(world, 0, parts)

		// Advance the residents and the replica to the post-batch topology,
		// or charge the replica's staging where the session has none yet.
		proc.Phase(machine.PhasePatch)
		editsA := adjacencyEdits(directed, myDiffs, false)
		editsAt := adjacencyEdits(directed, myDiffs, true)
		proc.AddFlops(rk.a.Patch(rank, editsA) + rk.at.Patch(rank, editsAt))
		for _, op := range s.replicaOf(rk) {
			switch {
			case stage:
				op.ChargeStage(spgemm.NewSession(proc), plan)
			case len(myDiffs) > 0:
				proc.AddFlops(splice) // the edited matrix, written whole
			}
		}

		acc, total := machine.Scratch[reduceBufs](proc).sums(2 * n)
		c0, c1 := distmat.PartBounds(rank, n, s.p)
		w := int(c1 - c0)
		buf := machine.Scratch[sourceBufs](proc)
		workers := parallel.Share(s.opt.Workers, proc.LocalRanks())
		for r0 := 0; r0 < len(sources); r0 += s.p * nb {
			round := sources[r0:min(r0+s.p*nb, len(sources))]
			proc.Phase(machine.PhaseSweep)
			lo, hi := distmat.PartBounds(rank, len(round), s.p)
			buf.cut(int(hi-lo), n, s.p)
			for side, ops := range adj {
				flops, err := buf.sweep(ctx, ops[0], ops[1], round[lo:hi], side, workers)
				proc.AddFlops(flops)
				if err != nil {
					machine.Abort(err)
				}
			}

			proc.Phase(machine.PhaseReduce)
			machine.AlltoallRecv(world, buf.parts, func(runs [][]float64) {
				for side := range adj {
					sum := acc[side*n+int(c0) : side*n+int(c1)]
					for src, run := range runs {
						lo, hi := distmat.PartBounds(src, len(round), s.p)
						rows := int(hi - lo)
						for r := side * rows * w; r < (side+1)*rows*w; r += w {
							for j, d := range run[r : r+w] {
								sum[j] += d
							}
						}
					}
				}
			})
		}
		// Every other rank's sums are +0 on the rank's columns, so the
		// allreduce only assembles the folded blocks.
		proc.Phase(machine.PhaseReduce)
		machine.AllreduceInto(world, acc, total, func(a, b float64) float64 { return a + b })
		if rank == 0 {
			copy(out.bc, total)
		}
	})
	out.stats = stats
	if err != nil {
		return nil, err
	}
	s.setTopology(newG, newAdj, newAt)
	s.replica = true
	recordRegionSpan(ctx, "fused-apply", s.p, out)
	return &IncrementalResult{OldBC: out.bc[:n:n], NewBC: out.bc[n:], Plan: plan, Stats: stats}, nil
}

// replicaOf returns the operands of rk — A, and Aᵀ where it is a matrix of
// its own — whose replica the session's CSRs stand for: those that hold no
// set staged under the route's plan. A set a Run staged under that plan is
// the replica itself, paid for and kept current by Patch.
func (s *DistSession) replicaOf(rk *distRank) []*spgemm.Stationary[float64] {
	ops := []*spgemm.Stationary[float64]{rk.a, rk.at}
	if !s.g.Directed {
		ops = ops[:1]
	}
	plan := sourcePlan(s.p)
	return slices.DeleteFunc(ops, func(op *spgemm.Stationary[float64]) bool { return op.HasSet(plan) })
}

// sourceBufs is the storage of one rank's share of a source-route round, on
// the rank's store (machine.Scratch): the CSR kernel's workspace and the
// rank's dependency rows, cut by the rank that folds them. parts[q] holds
// the columns [c0, c1) rank q owns (PartBounds, w = c1 − c0 of them) of
// every row, side by side: the dependency δ(s, v) of the share's row i on
// side side at parts[q][(side·rows + i)·w + v − c0], 0 where s does not
// reach v.
type sourceBufs struct {
	ws    workspace
	rows  int
	delta []float64
	parts [][]float64
}

// cut lays the parts out over the buffer for rows rows of n columns, two
// sides each, split among p ranks.
func (b *sourceBufs) cut(rows, n, p int) {
	b.rows = rows
	b.delta = grow(b.delta, 2*rows*n)
	b.parts = grow(b.parts, p)
	for q := range b.parts {
		c0, c1 := distmat.PartBounds(q, n, p)
		b.parts[q] = b.delta[2*rows*int(c0) : 2*rows*int(c1)]
	}
}

// sweep runs the CSR kernel over sources — the rank's share of a round —
// on one side, and writes each row's dependencies into the parts. It
// returns the kernel's products, and ctx's cause once ctx has ended.
func (b *sourceBufs) sweep(ctx context.Context, a, at *sparse.CSR[float64], sources []int32, side, workers int) (int64, error) {
	if len(sources) == 0 {
		return 0, nil
	}
	r, err := b.ws.batch(ctx, a, at, sources, workers)
	if err != nil {
		return r.ops, err
	}
	n := a.Cols
	for i := range sources {
		trow, zrow := b.ws.t[i*n:(i+1)*n], b.ws.z[i*n:(i+1)*n]
		for q, part := range b.parts {
			c0, c1 := distmat.PartBounds(q, n, len(b.parts))
			w := int(c1 - c0)
			row := part[(side*b.rows+i)*w:][:w]
			for j := range row {
				row[j] = 0
				if t := trow[int(c0)+j]; present(t) {
					row[j] = zrow[int(c0)+j] * t.M
				}
			}
		}
	}
	return r.ops, nil
}

// diffShares computes, per destination rank, the subset of the edge diff
// whose derived adjacency-matrix coordinates (for A or Aᵀ, both edge
// orientations for undirected graphs) some resident operand of that rank
// holds: every edit, once the ranks hold the replica. Rank 0's operands
// answer for every rank.
func (s *DistSession) diffShares(diffs []EdgeDiff, directed bool) [][]EdgeDiff {
	parts := make([][]EdgeDiff, s.p)
	if s.replica {
		for r := range parts {
			parts[r] = diffs
		}
		return parts
	}
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
