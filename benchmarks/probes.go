package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/machine/tcpnet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// ledger collects the per-layer metrics of a traced run.
type ledger map[string]metric

// set records a declared metric; its unit comes from the catalogue.
func (l ledger) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("metric " + name + " is not in the catalogue")
	}
	l[name] = metric{v, unit}
}

// probe is the context the layer probes share: where spans go, and the
// traced run's operands.
type probe struct {
	l    ledger
	rec  *recorder
	g    *graph.Graph // the workload's own graph
	src  []int32      // one source batch on g
	a    *sparse.CSR[float64]
	at   *sparse.CSR[float64]
	reps int
}

// timeMedian runs f reps times under a span and returns the median
// duration in seconds.
func (p *probe) timeMedian(name, op string, f func()) float64 {
	sp := p.rec.begin(nil, name, op)
	defer sp.end()
	runtime.GC()
	secs := make([]float64, p.reps)
	for i := range secs {
		t0 := time.Now()
		f()
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs)
}

// allocOf returns bytes and objects f allocates.
func allocOf(f func()) (bytes, objs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// graphLayer times the graph package on the workload's graph: generation,
// adjacency construction, and the copy/hash/edit steps every apply pays.
func (p *probe) graphLayer(regen func(), batch []graph.Mutation) {
	p.l.set("graph.generate_ms", p.timeMedian("graph.generate", "graph.RMAT|Grid2D", regen)*1e3)
	p.l.set("graph.adjacency_ms", p.timeMedian("graph.adjacency", "Graph.Adjacency+sparse.Transpose", func() {
		sparse.Transpose(p.g.Adjacency())
	})*1e3)
	p.l.set("graph.clone_us", p.timeMedian("graph.clone", "Graph.Clone", func() { p.g.Clone() })*1e6)
	p.l.set("graph.fingerprint_us", p.timeMedian("graph.fingerprint", "graph.Fingerprint", func() { graph.Fingerprint(p.g) })*1e6)
	sorted := p.g.Clone()
	if _, err := sorted.ApplyAll(batch); err != nil { // also sorts the edges once, as any first mutation does
		panic(err) // the script generator produced this batch for this graph
	}
	p.l.set("graph.apply_us", p.timeMedian("graph.apply", "Graph.ApplyAll", func() {
		_, _ = sorted.ApplyAll(batch) // applied once above without error
	})*1e6)
}

// sparseLayer times the local semiring SpGEMM on the multpath matrix T of
// the source batch and the adjacency, the product MFBF repeats each round.
func (p *probe) sparseLayer() *sparse.CSR[algebra.MultPath] {
	t, _, _ := core.MFBF(p.a, p.src)
	mp := algebra.MultPathMonoid()
	var ops int64
	sec := p.timeMedian("sparse.mul", "sparse.Mul", func() { _, ops = sparse.Mul(t, p.a, algebra.BFAction, mp) })
	bytes, objs := allocOf(func() { sparse.Mul(t, p.a, algebra.BFAction, mp) })
	p.l.set("sparse.mul_ns_per_op", sec*1e9/float64(max(ops, 1)))
	p.l.set("sparse.mul_ops", float64(ops))
	p.l.set("sparse.mul_alloc_kb", bytes/1e3)
	p.l.set("sparse.mul_allocs", objs)
	p.l.set("sparse.transpose_ms", p.timeMedian("sparse.transpose", "sparse.Transpose", func() { sparse.Transpose(p.a) })*1e3)
	return t
}

// coreSeqLayer times the two sweeps of a sequential batch separately.
func (p *probe) coreSeqLayer() {
	var t *sparse.CSR[algebra.MultPath]
	var itF, itB int
	p.l.set("core.mfbf_ms", p.timeMedian("core.mfbf", "core.MFBFParallel", func() { t, _, itF = core.MFBFParallel(p.a, p.src, 1) })*1e3)
	p.l.set("core.mfbr_ms", p.timeMedian("core.mfbr", "core.MFBrParallel", func() { _, _, itB = core.MFBrParallel(p.at, t, p.src, 1) })*1e3)
	p.l.set("core.mfbf_iters", float64(itF))
	p.l.set("core.mfbr_iters", float64(itB))
}

// spgemmLayer times the automatic plan search for this graph and batch.
func (p *probe) spgemmLayer() {
	var plan spgemm.Plan
	sec := p.timeMedian("spgemm.plan_search", "core.ChoosePlan", func() {
		plan = core.ChoosePlan(p.g, distProcs, len(p.src), machine.DefaultModel(), spgemm.AnyPlan)
	})
	p.l.set("spgemm.plan_search_us", sec*1e6)
	p.l.set("spgemm.plan_p1", float64(plan.P1))
	p.l.set("spgemm.plan_p2", float64(plan.P2))
	p.l.set("spgemm.plan_p3", float64(plan.P3))
}

// distmatLayer times entry-list sort and merge on a product-sized list.
func (p *probe) distmatLayer(t *sparse.CSR[algebra.MultPath]) {
	entries := t.ToCOO().E
	if len(entries) < 2 {
		p.l.set("distmat.sort_ns_per_entry", 0)
		p.l.set("distmat.merge_ns_per_entry", 0)
		return
	}
	shuffled := append([]sparse.Entry[algebra.MultPath](nil), entries...)
	rand.New(rand.NewSource(graphSeed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	work := make([]sparse.Entry[algebra.MultPath], len(shuffled))
	sec := p.timeMedian("distmat.sort", "distmat.SortEntries", func() {
		copy(work, shuffled)
		distmat.SortEntries(work)
	})
	p.l.set("distmat.sort_ns_per_entry", sec*1e9/float64(len(work)))
	// Two sorted runs with interleaved keys: even and odd positions.
	var even, odd []sparse.Entry[algebra.MultPath]
	for i, e := range work {
		if i%2 == 0 {
			even = append(even, e)
		} else {
			odd = append(odd, e)
		}
	}
	mp := algebra.MultPathMonoid()
	sec = p.timeMedian("distmat.merge", "distmat.MergeSorted", func() { distmat.MergeSorted(even, odd, mp) })
	p.l.set("distmat.merge_ns_per_entry", sec*1e9/float64(len(work)))
}

// collectives times the four collectives the multiply is built from at
// p=4 with a 64 KiB payload per rank, on any transport.
func (p *probe) collectives(prefix string, tr machine.Transport) error {
	const words = 8192 // 64 KiB of float64
	const rounds = 20
	payload := make([][]float64, distProcs)
	for r := range payload {
		payload[r] = make([]float64, words)
	}
	kinds := []struct {
		name string
		run  func(c *machine.Comm, data []float64)
	}{
		{"bcast", func(c *machine.Comm, data []float64) { machine.Bcast(c, 0, data) }},
		{"allgather", func(c *machine.Comm, data []float64) { machine.Allgather(c, data) }},
		{"allreduce", func(c *machine.Comm, data []float64) {
			machine.Allreduce(c, data, func(a, b float64) float64 { return a + b })
		}},
		{"alltoall", func(c *machine.Comm, data []float64) {
			parts := make([][]float64, distProcs)
			for i := range parts {
				parts[i] = data[i*words/distProcs : (i+1)*words/distProcs]
			}
			machine.Alltoall(c, parts)
		}},
	}
	for _, k := range kinds {
		sp := p.rec.begin(nil, "machine."+prefix+"_"+k.name, "machine collectives")
		t0 := time.Now()
		_, err := tr.Run(func(proc *machine.Proc) {
			for i := 0; i < rounds; i++ {
				k.run(proc.World(), payload[proc.Rank()])
			}
		})
		sec := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s %s: %w", prefix, k.name, err)
		}
		p.l.set("machine."+prefix+"_"+k.name+"_us", sec*1e6/rounds)
	}
	return nil
}

// machineLayer runs one distributed batch directly to read the per-phase
// attribution repro.Compute does not pass on, then the collective
// micro-runs on both transports, then the resident-session and TCP forms
// of the same batch.
func (p *probe) machineLayer() error {
	opt := core.DistOptions{Procs: distProcs, Workers: 1, Sources: p.src}
	var res *core.DistResult
	var err error
	p.timeMedian("core.mfbc_distributed", "core.MFBCDistributed", func() {
		if r, e := core.MFBCDistributed(p.g, opt); e != nil {
			err = e
		} else {
			res = r
		}
	})
	if err != nil {
		return fmt.Errorf("MFBCDistributed: %w", err)
	}
	for _, name := range []string{machine.PhaseStage, machine.PhaseSweep, machine.PhaseReduce} {
		var wall, model float64
		for _, ph := range res.Stats.Phases {
			if ph.Name == name {
				wall, model = ph.Wall.Seconds()*1e3, ph.ModelSec*1e3
			}
		}
		p.l.set("machine."+name+"_wall_ms", wall)
		p.l.set("machine."+name+"_model_ms", model)
	}
	p.l.set("machine.model_wall_ratio", res.Stats.ModelSec/res.Stats.Wall.Seconds())

	if err := p.collectives("sim", sim.New(distProcs)); err != nil {
		return err
	}
	mesh, err := tcpnet.StartLocalMesh(distProcs, tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("loopback mesh: %w", err)
	}
	defer mesh.Close()
	if err := p.collectives("tcp", mesh); err != nil {
		return err
	}

	var sess *core.DistSession
	p.l.set("core.session_build_ms", p.timeMedian("core.session_build", "core.NewDistSession", func() {
		if s, e := core.NewDistSession(p.g, core.DistOptions{Procs: distProcs, Workers: 1}); e != nil {
			err = e
		} else {
			sess = s
		}
	})*1e3)
	if err != nil {
		return fmt.Errorf("NewDistSession: %w", err)
	}
	p.l.set("core.session_run_ms", p.timeMedian("core.session_run", "DistSession.Run", func() {
		if _, e := sess.Run(p.src); e != nil {
			err = e
		}
	})*1e3)
	if err != nil {
		return fmt.Errorf("DistSession.Run: %w", err)
	}
	opt.Transport = mesh
	p.l.set("core.tcp_run_ms", p.timeMedian("core.tcp_run", "core.MFBCDistributed over tcpnet", func() {
		if _, e := core.MFBCDistributed(p.g, opt); e != nil {
			err = e
		}
	})*1e3)
	if err != nil {
		return fmt.Errorf("MFBCDistributed over tcp: %w", err)
	}
	return nil
}

// coalesceLayer times the pure batch-coalescing function on 64 one-op
// batches (the ingestion queue is off in every workload; this is a control).
func (p *probe) coalesceLayer(batches [][]graph.Mutation) {
	var muts []graph.Mutation
	for len(muts) < 64 {
		for _, b := range batches {
			muts = append(muts, b...)
		}
	}
	muts = muts[:64]
	p.l.set("dynamic.coalesce_us", p.timeMedian("dynamic.coalesce", "dynamic.Coalesce", func() {
		dynamic.Coalesce(p.g.Directed, muts)
	})*1e6)
}

// serverLayer calls the server's methods directly (no HTTP) on its own
// instance with a tracer, and reads the self times of the spans the
// server already records.
func (p *probe) serverLayer(hot *graph.Graph, batches [][]graph.Mutation) error {
	tracer := obs.NewTracer(4096)
	srv := server.New(server.Config{Workers: 1, Tracer: tracer})
	if _, err := srv.AddGraph("hot", hot.Clone()); err != nil {
		return err
	}
	traced := func(name string, f func(ctx context.Context) error) error {
		ctx, root := tracer.Start(context.Background(), name)
		defer root.End()
		return f(ctx)
	}
	hit := server.QueryRequest{Graph: "hot", K: 10}
	if _, err := srv.Query(hit); err != nil {
		return err
	}
	var err error
	sec := p.timeMedian("server.query_hit", "Server.QueryCtx", func() {
		for i := 0; i < 100 && err == nil; i++ {
			err = traced("probe.hit", func(ctx context.Context) error { _, e := srv.QueryCtx(ctx, hit); return e })
		}
	})
	if err != nil {
		return err
	}
	p.l.set("server.query_hit_us", sec*1e6/100)
	bytes, _ := allocOf(func() {
		for i := 0; i < 100; i++ {
			_, _ = srv.Query(hit) // same request as above, which cannot fail now
		}
	})
	p.l.set("server.alloc_kb_per_hit", bytes/1e3/100)

	var mutSec, missSec []float64
	for i, b := range batches {
		sp := p.rec.begin(nil, "server.mutate", "Server.MutateCtx")
		t0 := time.Now()
		err := traced("probe.mutate", func(ctx context.Context) error { _, e := srv.MutateCtx(ctx, "hot", b); return e })
		mutSec = append(mutSec, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("mutate %d: %w", i, err)
		}
		sp = p.rec.begin(nil, "server.query_miss", "Server.QueryCtx")
		t0 = time.Now()
		err = traced("probe.miss", func(ctx context.Context) error {
			_, e := srv.QueryCtx(ctx, server.QueryRequest{Graph: "hot", Batch: 32, K: 10})
			return e
		})
		missSec = append(missSec, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("miss %d: %w", i, err)
		}
	}
	p.l.set("server.mutate_ms", median(mutSec)*1e3)
	p.l.set("server.query_miss_ms", median(missSec)*1e3)

	// Self time per span name: duration minus what the children cover.
	self := map[string][]float64{}
	for _, tr := range tracer.Traces() {
		covered := map[string]int64{}
		for _, rec := range tr {
			covered[rec.Parent] += rec.DurUS
		}
		for _, rec := range tr {
			self[rec.Name] = append(self[rec.Name], float64(rec.DurUS-covered[rec.Span]))
		}
	}
	p.l.set("server.query_self_us", median(self["server.query"]))
	p.l.set("server.mutate_self_ms", median(self["server.mutate"])/1e3)
	p.l.set("server.compute_ms", median(self["server.compute"])/1e3)
	return nil
}
