// The source route: every sweep of the streaming engine at Procs > 1. An
// evolving-graph apply needs the dependency contributions of the affected
// pivots on both sides of the edit: δ_old to subtract, δ_new to add; a
// full recompute needs every vertex's on the new side alone.
// ApplyIncrementalCtx and RecomputeCtx compute them in ONE machine region
// under the 1D decomposition of §5.2 that replicates the adjacency,
// p×1×1/X=B: every rank holds all of A (and Aᵀ), so the frontier
// partitions by source rows and a whole MFBF/MFBr sweep of a rank's
// sources needs no communication at all (§6.2). The region takes the
// source list in rounds of p·Batch sources; in each, every rank runs the
// CSR kernel of seq.go over a contiguous block of at most Batch of them on
// each side — the pre-batch adjacency and the post-batch one — which per
// source is exactly Brandes' edge visits. The region's supersteps follow
// the rounds, however many BF rounds the sweeps take, and a rank's
// dependency rows are one round's, O(Batch·n) per side. Run's entry-list
// sweep (dist.go) stays the route of one-shot computations.
//
// The kernel reads the session's adjacency CSRs, which every process holds
// (the replicated-input convention the shards are cut by; on a tcp mesh
// each process's own engine replica). The model accounts for that copy as
// the working set of the route's plan would be: staging it is charged once
// per session (and again after a vertex-set change), as staging a
// p×1×1/X=B set from the ranks' shards is, and every later edit of it is
// charged as rewriting that set whole. The CSR stands for the set, so no
// rank holds an entry-list copy of it.
//
// The region's phases, attributed via machine.Proc.Phase:
//
//	diff   — rank 0 scatters the edge diff to every rank (none while the
//	         ranks stage the replica afresh)
//	patch  — each rank's splice of the diff into its replica, charged as
//	         local γ-flops, with the splices of applies that ran no
//	         region; the first region of a session charges the replica's
//	         staging instead
//	sweep  — the CSR kernel over the rank's sources of a round on each
//	         side, its products charged as flops
//	reduce — per round, an all-to-all hands every rank's dependency rows,
//	         cut by column block, to the block's owner, which folds them in
//	         source order; one allreduce of every side's n-vector closes
//
// Because each vertex's rows fold in source order, as SweepSources folds
// them, every side is bit for bit what SweepSources gives over that side's
// adjacency, at every rank count.
package core

import (
	"context"

	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// IncrementalResult is the outcome of one region of the source route.
type IncrementalResult struct {
	OldBC []float64        // Σ_{s∈sources} δ_old(s,·) on the pre-batch topology (0 on added vertices); nil for a recompute
	NewBC []float64        // Σ_{s∈sources} δ_new(s,·) on the post-batch topology
	Plan  spgemm.Plan      // the route's decomposition, p×1×1/X=B/YZ=AB
	Stats machine.RunStats // with per-phase attribution (diff/patch/sweep/reduce)
}

// sourcePlan is the decomposition of the source route at p ranks: B — the
// adjacency — replicated on every one of p layers, each a 1×1 grid.
func sourcePlan(p int) spgemm.Plan {
	return spgemm.Plan{P1: p, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}
}

// ApplyIncrementalCtx moves the session to newG, whose edge set differs
// from the session's topology by exactly diffs, and sweeps sources over
// both: the old side over the session's topology, the new side over newG,
// in one region of the source route. An apply with no sources runs no
// region: the session moves host-side, and the next region charges the
// replica's splice. On error the session's state is indeterminate; callers
// should drop and rebuild the session.
//
// When newG has more vertices than the session's topology, the old side
// sweeps that topology padded with the new vertices, isolated, so it reads
// 0 on them, and the replica is staged again. newAdj is newG's adjacency
// and newAt its transpose, each built when nil. ctx ends the region as in
// RunCtx, and the kernel also checks it before every source row. When ctx
// carries an obs span, the region's modeled-vs-measured stats are attached
// as a machine.region child span with per-phase grandchildren.
func (s *DistSession) ApplyIncrementalCtx(ctx context.Context, sources []int32, newG *graph.Graph, newAdj, newAt *sparse.CSR[float64], diffs []EdgeDiff) (*IncrementalResult, error) {
	if err := CheckSources(newG.N, sources); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		s.pending += s.move(newG, newAdj, newAt, diffs)
		return &IncrementalResult{OldBC: make([]float64, newG.N), NewBC: make([]float64, newG.N)}, nil
	}
	return s.sweepRoute(ctx, "fused-apply", sources, true, newG, newAdj, newAt, diffs)
}

// RecomputeCtx moves the session to newG, as ApplyIncrementalCtx does, and
// sweeps every vertex of newG on the new side alone: the full scores of
// newG, in one region of the source route, with no old side.
func (s *DistSession) RecomputeCtx(ctx context.Context, newG *graph.Graph, newAdj, newAt *sparse.CSR[float64], diffs []EdgeDiff) (*IncrementalResult, error) {
	sources := make([]int32, newG.N)
	for v := range sources {
		sources[v] = int32(v)
	}
	return s.sweepRoute(ctx, "recompute", sources, false, newG, newAdj, newAt, diffs)
}

// move makes newG the session's topology host-side: a vertex-set change
// drops the replica. It returns the local work of the edit's splice into a
// replica the ranks hold, a rewrite of A, and of Aᵀ where it is a matrix
// of its own, for a region to charge.
func (s *DistSession) move(newG *graph.Graph, newAdj, newAt *sparse.CSR[float64], diffs []EdgeDiff) int64 {
	if newAdj == nil {
		newAdj, newAt = newG.Adjacency(), nil
	}
	if newG.N != s.g.N {
		s.replica = false
	}
	var splice int64
	if s.replica && len(diffs) > 0 {
		splice = int64(newAdj.NNZ())
		if newG.Directed {
			splice *= 2
		}
	}
	s.setTopology(newG, newAdj, newAt)
	return splice
}

// sweepRoute runs one region of the source route over sources, named
// region in its span: on the session's topology first where both is set,
// then on newG's, to which it moves the session. Rank 0 scatters the edit
// to every rank, and each charges its splice; where the ranks hold no
// replica, the region charges its staging instead, through their shards of
// newG.
func (s *DistSession) sweepRoute(ctx context.Context, region string, sources []int32, both bool, newG *graph.Graph, newAdj, newAt *sparse.CSR[float64], diffs []EdgeDiff) (*IncrementalResult, error) {
	n := newG.N
	var adj [][2]*sparse.CSR[float64]
	if both {
		if n > s.g.N {
			padded := s.g.Clone()
			padded.N = n
			s.reset(padded)
		}
		adj = append(adj, [2]*sparse.CSR[float64]{s.adjacency(), s.transpose()})
	}
	splice := s.move(newG, newAdj, newAt, diffs)
	adj = append(adj, [2]*sparse.CSR[float64]{s.adjacency(), s.transpose()})
	sides := len(adj)
	stage := !s.replica
	parts := make([][]EdgeDiff, s.p)
	if stage {
		s.cutShards()
	} else {
		for r := range parts {
			parts[r] = diffs
		}
	}
	plan := sourcePlan(s.p)
	// Each round sweeps p·nb sources, at most nb of them on a rank.
	nb := Options{Batch: s.opt.Batch}.batchFor(len(sources))

	out := &regionOutcome{bc: make([]float64, sides*n)}
	stats, err := s.region(ctx, func(proc *machine.Proc, rk *distRank) {
		world, rank := proc.World(), proc.Rank()
		proc.Phase(machine.PhaseDiff)
		machine.Scatter(world, 0, parts)

		proc.Phase(machine.PhasePatch)
		proc.AddFlops(splice)
		if stage {
			sess := spgemm.NewSession(proc)
			rk.a.ChargeStage(sess, plan)
			if newG.Directed {
				rk.at.ChargeStage(sess, plan)
			}
		}

		acc, total := machine.Scratch[reduceBufs](proc).sums(sides * n)
		c0, c1 := distmat.PartBounds(rank, n, s.p)
		w := int(c1 - c0)
		buf := machine.Scratch[sourceBufs](proc)
		workers := parallel.Share(s.opt.Workers, proc.LocalRanks())
		for r0 := 0; r0 < len(sources); r0 += s.p * nb {
			round := sources[r0:min(r0+s.p*nb, len(sources))]
			proc.Phase(machine.PhaseSweep)
			lo, hi := distmat.PartBounds(rank, len(round), s.p)
			buf.cut(int(hi-lo), n, s.p, sides)
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
	s.replica = true
	recordRegionSpan(ctx, region, s.p, out)
	res := &IncrementalResult{NewBC: out.bc[(sides-1)*n:], Plan: plan, Stats: stats}
	if both {
		res.OldBC = out.bc[:n:n]
	}
	return res, nil
}

// sourceBufs is the storage of one rank's share of a source-route round, on
// the rank's store (machine.Scratch): the CSR kernel's workspace and the
// rank's dependency rows, cut by the rank that folds them. parts[q] holds
// the columns [c0, c1) rank q owns (PartBounds, w = c1 − c0 of them) of
// every row of every side, side after side: the dependency δ(s, v) of the
// share's row i on side side at parts[q][(side·rows + i)·w + v − c0], 0
// where s does not reach v.
type sourceBufs struct {
	ws    workspace
	rows  int
	delta []float64
	parts [][]float64
}

// cut lays the parts out over the buffer for rows rows of n columns on
// each of sides sides, split among p ranks.
func (b *sourceBufs) cut(rows, n, p, sides int) {
	b.rows = rows
	b.delta = grow(b.delta, sides*rows*n)
	b.parts = grow(b.parts, p)
	for q := range b.parts {
		c0, c1 := distmat.PartBounds(q, n, p)
		b.parts[q] = b.delta[sides*rows*int(c0) : sides*rows*int(c1)]
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
