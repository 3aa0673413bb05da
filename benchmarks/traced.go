package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// seqLedger turns a run of the sequential driver into its layers' rows.
func seqLedger(l ledger, d *runData, o *seqOperands) {
	work := float64(o.a.NNZ() * len(o.sets.sets[0]))
	reps := float64(o.calibReps)
	l.set("core.batch_ms", median(d.op)*1e3)
	l.set("core.batch_mteps", work/median(d.op)/1e6)
	l.set("core.batch_ops", d.counts["core.batch_ops"])
	l.set("core.batch_allocs", float64(d.allocObjs)/float64(len(d.op)))
	l.set("baseline.combblas_batch_ms", median(d.base)*1e3)
	l.set("baseline.brandes_batch_ms", median(d.calib)/reps*1e3)
	one := make([]float64, len(d.calib))
	for i, c := range d.calib {
		one[i] = c / reps
	}
	l.set("vs_brandes", median(ratios(one, d.op)))
}

// distLedger turns a run of the distributed driver into its layers' rows.
func distLedger(l ledger, d *runData, o *distOperands) {
	work := float64(o.g.AdjacencyNNZ() * len(o.sets.sets[0]))
	l.set("core.dist_compute_ms", median(d.op)*1e3)
	l.set("core.dist_mteps", work/median(d.op)/1e6)
	l.set("core.dist_iters", d.counts["core.dist_iters"])
	l.set("baseline.distcombblas_run_ms", median(d.base)*1e3)
	l.set("machine.bytes", d.counts["machine.bytes"])
	l.set("machine.msgs", d.counts["machine.msgs"])
	l.set("machine.flops", d.counts["machine.flops"])
	l.set("machine.model_ms", d.counts["machine.model_ms"])
	l.set("machine.comm_ms", d.counts["machine.comm_ms"])
}

// streamLedger turns a run of the streaming driver into the dynamic
// layer's rows.
func streamLedger(l ledger, d *runData, o *streamOperands) {
	l.set("dynamic.engine_build_ms", o.buildSec*1e3)
	for _, k := range []string{"incremental_share", "fused_share", "affected_share", "apply_model_ms",
		"diff_model_ms", "patch_model_ms", "sweep_model_ms", "reduce_model_ms",
		"diff_wall_ms", "patch_wall_ms", "sweep_wall_ms", "reduce_wall_ms"} {
		l.set("dynamic."+k, d.counts["dynamic."+k])
	}
	l.set("dynamic.apply_incremental_p50_ms", median(d.series["apply.incremental"])*1e3)
	l.set("dynamic.apply_full_p50_ms", median(d.series["apply.full"])*1e3)
	l.set("dynamic.apply_local_p50_ms", median(d.series["apply."+classLocal])*1e3)
	l.set("dynamic.apply_arterial_p50_ms", median(d.series["apply."+classArterial])*1e3)
	var total float64
	for _, t := range d.op {
		total += t
	}
	l.set("dynamic.updates_per_s", float64(len(d.op))/total)
	l.set("dynamic.apply_alloc_mb", float64(d.allocBytes)/float64(len(d.op))/1e6)
	l.set("dynamic.recompute_ms", median(d.base)*1e3)
	l.set("dynamic.probe_ms", mean(d.series["probe"])*1e3)
}

// serveLedger turns a run of the service driver, plus a few extra requests
// to the same server, into the server and HTTP rows.
func serveLedger(l ledger, d *runData, o *serveOperands, p *probe) error {
	l.set("http.hit_p50_us", median(d.series["hit"])*1e6)
	l.set("http.hit_busy_p50_us", median(d.series["hit_busy"])*1e6)
	l.set("http.hit_p99_us", percentile(d.series["hit_busy"], 0.99)*1e6)
	stalled := 0
	for _, t := range d.series["hit_busy"] {
		if t > stallLimit {
			stalled++
		}
	}
	l.set("http.hit_stall_share", float64(stalled)/float64(len(d.series["hit_busy"])))
	l.set("http.miss_p50_ms", median(d.series["miss"])*1e3)
	l.set("http.write_visible_p50_ms", median(d.series["visible"])*1e3)
	l.set("calib_http_p50_us", median(d.series["calib_http"])*1e6)

	st := o.srv.Stats()
	l.set("server.cache_hit_share", float64(st.CacheHits)/float64(st.Queries))
	l.set("server.coalesced_share", float64(st.Coalesced)/float64(st.Queries))
	l.set("server.warm_seeds", float64(st.WarmSeeds))

	var err error
	get := func(name, method, path string, body []byte) float64 {
		return p.timeMedian(name, method+" "+path, func() {
			if e := o.w.do(method, path, body, nil); e != nil {
				err = e
			}
		})
	}
	l.set("http.healthz_us", get("http.healthz", "GET", "/healthz", nil)*1e6)
	l.set("http.scores_reply_ms", get("http.scores_reply", "POST", "/query", scoresBody)*1e3)
	l.set("obs.metrics_scrape_us", get("obs.metrics_scrape", "GET", "/metrics", nil)*1e6)
	return err
}

// probeSources is one batch of up to k sources on g for the layer probes.
func probeSources(g *graph.Graph, seed int64, k int) [][]int32 {
	return sourceBatches(subRNG(seed, 21), g.N, k, 4)
}

// tracedRun is the per-layer run. It executes the first half of the
// workload's script twice on fresh instances, untraced and then traced
// (benchmark spans around every call into a layer, the program's own
// obs.Tracer on where a layer takes one), which gives the tracing
// overhead; then it runs short scripts of the other three drivers and the
// direct layer probes on the workload's own graph, so that every layer
// has a row whichever workload is traced. Layers whose cost grows with
// n² (the dynamic engine and the server, which compute full BC) get the
// workload's graph when it has at most 512 vertices and the same
// generator at probe scale otherwise.
func tracedRun(workload string, seed int64, sz sizes, ref float64, spanFile string) (*result, error) {
	l := ledger{}
	res := &result{}
	count := func(d *runData) {
		res.Attempted += d.attempted
		res.Failed += d.failed
	}

	plain, setups, err := setupTimed(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	n := max(plain.iterations()/2, 1)
	dPlain, err := plain.run(n, nil, nil)
	plain.close()
	if err != nil {
		return nil, err
	}
	count(dPlain)

	rec := newRecorder()
	tracer := obs.NewTracer(1024)
	in, err := setup(workload, seed, sz, tracer)
	if err != nil {
		return nil, err
	}
	defer in.close()
	d, err := in.run(n, rec, tracer)
	if err != nil {
		return nil, err
	}
	count(d)
	timedStart, timedEnd := d.start, d.end
	strategy := d.strategy

	class := primaryClass(workload)
	l.set("obs.trace_overhead_pct", 100*(median(calibratedOps(d, class, ref))/median(calibratedOps(dPlain, class, ref))-1))
	l.set("calib_p50_ms", median(d.calib)*1e3)
	l.set("raw.op_p50_ms", median(calibratedOps(d, class, 0))*1e3)
	l.set("raw.setup_s", median(setups))
	l.set("op_p90_ms", percentile(calibratedOps(d, class, ref), 0.9)*1e3)

	g := in.sc.Graph
	small := g
	if g.N > 512 {
		small = rmat(sz.probeScale, sz.edgeFactor)
	}
	sets := probeSources(g, seed, min(sz.distSources, g.N))
	batches, classes := reweightBatches(small, subRNG(seed, 22), sz.probeBatches+1,
		[]string{classLocal, classArterial})

	// The four drivers: the workload's own traced pass, short runs of the rest.
	if in.seq == nil {
		o := newSeqOperands(g, sets, 1)
		dd := seqRun(o, sz.probeIters, rec)
		count(dd)
		seqLedger(l, dd, o)
	} else {
		seqLedger(l, d, in.seq)
	}
	if in.dist == nil {
		o := newDistOperands(g, sets, 1)
		dd, err := distRun(o, sz.probeIters, rec)
		if err != nil {
			return nil, err
		}
		count(dd)
		distLedger(l, dd, o)
	} else {
		distLedger(l, d, in.dist)
	}
	if in.stream == nil {
		o, err := newStreamEngine(small, batches, classes, 2, 1)
		if err != nil {
			return nil, err
		}
		dd, err := streamRun(o, sz.probeBatches, rec, tracer)
		if err != nil {
			return nil, err
		}
		count(dd)
		streamLedger(l, dd, o)
		strategy = dd.strategy
	} else {
		streamLedger(l, d, in.stream)
	}
	a := g.Adjacency()
	p := &probe{l: l, rec: rec, g: g, src: sets[0], a: a, at: sparse.Transpose(a), reps: 3}
	if in.serve == nil {
		arterial, _ := reweightBatches(small, subRNG(seed, 23), sz.probeCycles+1, []string{classArterial})
		o, err := newService(small, rmat(sz.probeScale-1, sz.edgeFactor), arterial, sz.serveBurst, 1, tracer)
		if err != nil {
			return nil, err
		}
		defer o.close()
		dd, err := serveRun(o, sz.probeCycles, rec)
		if err != nil {
			return nil, err
		}
		count(dd)
		err = serveLedger(l, dd, o, p)
		if err != nil {
			return nil, err
		}
	} else if err := serveLedger(l, d, in.serve, p); err != nil {
		return nil, err
	}

	// Direct calls into each layer on the workload's own operands.
	p.graphLayer(func() { baseGraph(workload, sz) }, batchFor(g, small, batches))
	t := p.sparseLayer()
	p.coreSeqLayer()
	p.spgemmLayer()
	p.distmatLayer(t)
	if err := p.machineLayer(); err != nil {
		return nil, err
	}
	p.coalesceLayer(batches)
	if err := p.serverLayer(small, batches[:sz.probeCycles]); err != nil {
		return nil, err
	}
	l.set("http.overhead_us", l["http.hit_p50_us"].Value-l["server.query_hit_us"].Value)

	l.set("bench.span_coverage_pct", 100*rec.coverage(timedStart, timedEnd))
	changed, diff := goldenDiff(workload, seed, sz, l, strategy)
	l.set("bench.counts_changed", float64(changed))
	for _, line := range diff {
		fmt.Fprintln(os.Stderr, "counts_changed:", line)
	}
	if err := rec.write(spanFile); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		return self[a] > self[b] || self[a] == self[b] && a < b
	})
	for _, name := range names[:min(12, len(names))] {
		fmt.Printf("# self %-28s %10.3f ms\n", name, float64(self[name])/1e3)
	}
	fmt.Printf("# %s seed=%d traced iterations=%d spans=%d file=%s strategy=%s\n", workload, seed, len(d.op), len(rec.spans), spanFile, strategy)
	res.Correct = res.Failed == 0
	res.Metrics = l
	return res, nil
}

// batchFor returns one scripted batch valid on g: the probe script's own
// when it was generated for g, else a fresh single reweight.
func batchFor(g, small *graph.Graph, batches [][]graph.Mutation) []graph.Mutation {
	if g == small {
		return batches[0]
	}
	e := g.Edges[len(g.Edges)/2]
	return []graph.Mutation{{Op: graph.OpSetWeight, U: e.U, V: e.V, W: weightGrid(e.W * 1.125)}}
}
