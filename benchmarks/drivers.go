package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// runData is what one scripted run of a driver measured. Times are raw
// seconds; op[i] and calib[i] (and, where the baseline runs every
// iteration, base[i]) were taken back to back in iteration i, which is
// what makes the paired ratios steadier than any of the three alone.
type runData struct {
	op, base, calib []float64
	class           []string // class[i] of op[i] ("" when the script has one class)

	allocBytes, allocObjs uint64 // over the op sections only
	attempted, failed     int

	counts   map[string]float64   // exact counters the calls returned
	series   map[string][]float64 // raw seconds by strategy, class or request kind
	strategy string               // stream: one letter per batch (i = incremental, f = full)
	start    time.Duration        // offsets from the recorder's start, for span coverage
	end      time.Duration
}

func newRunData() *runData {
	return &runData{counts: map[string]float64{}, series: map[string][]float64{}}
}

func (d *runData) check(ok bool) {
	d.attempted++
	if !ok {
		d.failed++
	}
}

// section runs f as one timed section: an untimed GC first, so a
// collection triggered by the previous section's garbage is not charged
// to this one.
func section(f func()) float64 {
	runtime.GC()
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// allocSection is section plus the heap allocation f performed.
func allocSection(d *runData, f func()) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	sec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.allocObjs += after.Mallocs - before.Mallocs
	return sec
}

// calibPass is the calibrator section: reps Brandes passes over sources
// (every vertex when sources is nil), leaving the oracle scores in want.
func calibPass(b *brandes, sources []int32, want []float64, reps int) float64 {
	return section(func() {
		for r := 0; r < reps; r++ {
			if sources == nil {
				b.all(want)
			} else {
				b.run(sources, want)
			}
		}
	})
}

func since(rec *recorder) time.Duration {
	if rec == nil {
		return 0
	}
	return time.Since(rec.t0)
}

// ---------------------------------------------------------------- seq

// seqOperands are the inputs of the sequential batch driver: adjacency and
// transpose of g, and of its unweighted skeleton for the baseline.
type seqOperands struct {
	g, skel     *graph.Graph
	a, at       *sparse.CSR[float64]
	sa, sat     *sparse.CSR[float64]
	sets        sourceSets
	oracle      brandes
	skelOracle  brandes
	calibReps   int
	want, wantS []float64
	bc, bc2     []float64
}

// sourceSets hands out the scripted source batches one per iteration, in
// order, wrapping around.
type sourceSets struct {
	sets [][]int32
	next int
}

func (s *sourceSets) take() []int32 {
	src := s.sets[s.next%len(s.sets)]
	s.next++
	return src
}

// skeletonOracle fills wantS with the oracle scores of src on the
// unweighted skeleton, which on an unweighted graph are just want.
func skeletonOracle(weighted bool, sk *brandes, src []int32, want, wantS []float64) {
	if weighted {
		sk.run(src, wantS)
	} else {
		copy(wantS, want)
	}
}

func newSeqOperands(g *graph.Graph, sets [][]int32, calibReps int) *seqOperands {
	o := &seqOperands{g: g, skel: skeleton(g), sets: sourceSets{sets: sets}, calibReps: calibReps}
	o.a = g.Adjacency()
	o.at = sparse.Transpose(o.a)
	o.sa, o.sat = o.a, o.at
	if o.skel != g {
		o.sa = o.skel.Adjacency()
		o.sat = sparse.Transpose(o.sa)
	}
	o.oracle.load(g)
	o.skelOracle.load(o.skel)
	o.want = make([]float64, g.N)
	o.wantS = make([]float64, g.N)
	o.bc = make([]float64, g.N)
	o.bc2 = make([]float64, g.N)
	return o
}

// seqRun times iters iterations of calib → core.MFBCBatchParallel →
// baseline.CombBLASBatch on the same operands, each iteration on the next
// scripted source batch.
func seqRun(o *seqOperands, iters int, rec *recorder) *runData {
	d := newRunData()
	d.start = since(rec)
	for i := 0; i < iters; i++ {
		it := rec.begin(nil, "iter", "")
		src := o.sets.take()

		sp := rec.begin(it, "calib", "brandes.run")
		d.calib = append(d.calib, calibPass(&o.oracle, src, o.want, o.calibReps))
		sp.end()

		clear(o.bc)
		var ops int64
		sp = rec.begin(it, "core.batch", "core.MFBCBatchParallel")
		d.op = append(d.op, allocSection(d, func() {
			ops, _ = core.MFBCBatchParallel(o.a, o.at, src, o.bc, 1)
		}))
		sp.end()
		d.counts["core.batch_ops"] = float64(ops)

		clear(o.bc2)
		sp = rec.begin(it, "baseline.combblas_batch", "baseline.CombBLASBatch")
		d.base = append(d.base, section(func() { baseline.CombBLASBatch(o.sa, o.sat, src, o.bc2) }))
		sp.end()

		sp = rec.begin(it, "check", "")
		skeletonOracle(o.g.Weighted, &o.skelOracle, src, o.want, o.wantS)
		d.check(scoresMatch(o.bc, o.want))
		d.check(scoresMatch(o.bc2, o.wantS))
		sp.end()
		it.end()
	}
	d.end = since(rec)
	return d
}

// ---------------------------------------------------------------- dist

const distProcs = 4 // the smallest machine with a 2-D grid

type distOperands struct {
	g, skel    *graph.Graph
	sets       sourceSets
	oracle     brandes
	skelOracle brandes
	calibReps  int
	want       []float64
	wantS      []float64
}

func newDistOperands(g *graph.Graph, sets [][]int32, calibReps int) *distOperands {
	o := &distOperands{g: g, skel: skeleton(g), sets: sourceSets{sets: sets}, calibReps: calibReps}
	o.oracle.load(g)
	o.skelOracle.load(o.skel)
	o.want = make([]float64, g.N)
	o.wantS = make([]float64, g.N)
	return o
}

// distRun times iters iterations of calib → repro.Compute(MFBC, p=4) →
// repro.Compute(CombBLAS, p=4) on the next scripted source batch: the
// one-shot form, placement paid per call.
func distRun(o *distOperands, iters int, rec *recorder) (*runData, error) {
	d := newRunData()
	d.start = since(rec)
	for i := 0; i < iters; i++ {
		it := rec.begin(nil, "iter", "")
		src := o.sets.take()

		sp := rec.begin(it, "calib", "brandes.run")
		d.calib = append(d.calib, calibPass(&o.oracle, src, o.want, o.calibReps))
		sp.end()

		var res, bres *repro.Result
		var err, berr error
		sp = rec.begin(it, "dist.compute", "repro.Compute")
		d.op = append(d.op, allocSection(d, func() {
			res, err = repro.Compute(o.g, repro.Options{
				Engine: repro.EngineMFBC, Procs: distProcs, Sources: src, Workers: 1})
		}))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("dist compute: %w", err)
		}

		sp = rec.begin(it, "baseline.distcombblas", "repro.Compute")
		d.base = append(d.base, section(func() {
			bres, berr = repro.Compute(o.skel, repro.Options{
				Engine: repro.EngineCombBLAS, Procs: distProcs, Sources: src, Workers: 1})
		}))
		sp.end()
		if berr != nil {
			return nil, fmt.Errorf("dist baseline: %w", berr)
		}

		sp = rec.begin(it, "check", "")
		skeletonOracle(o.g.Weighted, &o.skelOracle, src, o.want, o.wantS)
		d.check(scoresMatch(res.BC, o.want))
		d.check(scoresMatch(bres.BC, o.wantS))
		sp.end()
		it.end()
		d.counts["machine.bytes"] = float64(res.Comm.Bytes)
		d.counts["machine.msgs"] = float64(res.Comm.Msgs)
		d.counts["machine.flops"] = float64(res.Comm.Flops)
		d.counts["machine.model_ms"] = res.Comm.ModelSec * 1e3
		d.counts["machine.comm_ms"] = res.Comm.CommSec * 1e3
		d.counts["core.dist_iters"] = float64(res.Iterations)
	}
	d.end = since(rec)
	return d, nil
}

// ---------------------------------------------------------------- stream

type streamOperands struct {
	g         *graph.Graph
	batches   [][]graph.Mutation // batches[0] is applied by newStreamEngine as the warm-up
	classes   []string
	baseEvery int
	calibReps int
	dyn       *repro.DynamicBC
	oracle    brandes
	want      []float64
	buildSec  float64
}

// newStreamEngine builds the maintenance engine on g (p=4 on the sim,
// everything else default) and applies the warm-up batch.
func newStreamEngine(g *graph.Graph, batches [][]graph.Mutation, classes []string, baseEvery, calibReps int) (*streamOperands, error) {
	o := &streamOperands{g: g, batches: batches, classes: classes, baseEvery: baseEvery, calibReps: calibReps}
	var err error
	t0 := time.Now()
	o.dyn, err = repro.NewDynamicBC(g, repro.DynamicOptions{Procs: distProcs, Workers: 1})
	o.buildSec = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("dynamic engine: %w", err)
	}
	if _, err := o.dyn.Apply(batches[0]); err != nil {
		return nil, fmt.Errorf("warm-up apply: %w", err)
	}
	o.want = make([]float64, g.N)
	return o, nil
}

// streamRun applies the first n scripted batches one by one. After each Apply the
// calibrator recomputes full BC on the engine's own graph and the
// maintained scores are checked against it; every baseEvery-th batch a
// from-scratch repro.Compute on the same graph is timed as the baseline
// (what a caller without the engine would pay per update). With a tracer,
// every apply runs under an obs root span whose trace is merged in.
func streamRun(o *streamOperands, n int, rec *recorder, tracer *obs.Tracer) (*runData, error) {
	d := newRunData()
	d.start = since(rec)
	var modelSec float64
	var incr, fused, affected, nSources float64
	phaseModel := map[string]float64{}
	phaseWall := map[string]float64{}
	for i, batch := range o.batches[1 : 1+n] {
		it := rec.begin(nil, "iter", "")

		var rep repro.ApplyReport
		var err error
		sp := rec.begin(it, "dynamic.apply", "DynamicBC.ApplyCtx")
		d.op = append(d.op, allocSection(d, func() {
			ctx, root := tracer.Start(context.Background(), "bench.apply")
			rep, err = o.dyn.ApplyCtx(ctx, batch)
			root.End()
		}))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("apply %d: %w", i, err)
		}
		if tracer != nil {
			traces := tracer.Traces()
			last := traces[len(traces)-1:]
			rec.mergeObs(sp, last)
			var probe float64
			for _, r := range last[0] {
				if r.Name == "dynamic.probe" {
					probe += float64(r.DurUS) / 1e6
				}
			}
			d.series["probe"] = append(d.series["probe"], probe)
		}
		d.class = append(d.class, o.classes[i+1])
		d.series["apply."+rep.Strategy] = append(d.series["apply."+rep.Strategy], d.op[len(d.op)-1])
		d.series["apply."+o.classes[i+1]] = append(d.series["apply."+o.classes[i+1]], d.op[len(d.op)-1])
		modelSec += rep.Comm.ModelSec
		d.strategy += rep.Strategy[:1]
		if rep.Strategy == "incremental" {
			incr++
		}
		if rep.Fused {
			fused++
		}
		affected += float64(rep.Affected)
		nSources += float64(rep.N)
		for _, ph := range rep.Phases {
			phaseModel[ph.Name] += ph.ModelSec * 1e3
			phaseWall[ph.Name] += ph.WallMS
		}

		snap := o.dyn.Scores()
		sp = rec.begin(it, "calib", "brandes.all")
		o.oracle.load(snap.Graph)
		d.calib = append(d.calib, calibPass(&o.oracle, nil, o.want, o.calibReps))
		sp.end()

		if i%o.baseEvery == 0 {
			var res *repro.Result
			sp = rec.begin(it, "baseline.recompute", "repro.Compute")
			d.base = append(d.base, section(func() {
				res, err = repro.Compute(snap.Graph, repro.Options{Procs: distProcs, Workers: 1})
			}))
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("recompute %d: %w", i, err)
			}
			d.check(scoresMatch(res.BC, o.want))
		}

		sp = rec.begin(it, "check", "")
		d.check(scoresMatch(snap.BC, o.want))
		sp.end()
		it.end()
	}
	d.end = since(rec)
	ops := float64(len(d.op))
	d.counts["dynamic.apply_model_ms"] = modelSec * 1e3 / ops
	d.counts["dynamic.incremental_share"] = incr / ops
	d.counts["dynamic.fused_share"] = fused / ops
	d.counts["dynamic.affected_share"] = affected / nSources
	for _, ph := range []string{"diff", "patch", "sweep", "reduce"} {
		d.counts["dynamic."+ph+"_model_ms"] = phaseModel[ph] / ops
		d.counts["dynamic."+ph+"_wall_ms"] = phaseWall[ph] / ops
	}
	return d, nil
}
