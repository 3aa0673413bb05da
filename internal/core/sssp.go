// Single-source shortest paths with multiplicities: the MFBF phase
// (Algorithm 1) exposed as a standalone capability. The paper's conclusion
// notes that the monoid/frontier methodology extends beyond betweenness
// centrality; multi-source SSSP with path counting is its first half.
package core

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// SSSPResult holds distances and shortest-path multiplicities from each
// source: Dist[s][v] = τ(sources[s], v) (+Inf when unreachable; 0 at the
// source itself) and Counts[s][v] = σ̄(sources[s], v).
type SSSPResult struct {
	Sources    []int32
	Dist       [][]float64
	Counts     [][]float64
	Iterations int
}

func newSSSPResult(sources []int32, n int) *SSSPResult {
	r := &SSSPResult{
		Sources: sources,
		Dist:    make([][]float64, len(sources)),
		Counts:  make([][]float64, len(sources)),
	}
	for s := range sources {
		r.Dist[s] = make([]float64, n)
		r.Counts[s] = make([]float64, n)
		for v := range r.Dist[s] {
			r.Dist[s][v] = math.Inf(1)
		}
		r.Dist[s][sources[s]] = 0
		r.Counts[s][sources[s]] = 1
	}
	return r
}

// SSSP computes shortest distances and multiplicities from the given
// sources with the sequential MFBF sweep.
func SSSP(g *graph.Graph, sources []int32) (*SSSPResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := checkSSSPSources(g.N, sources); err != nil {
		return nil, err
	}
	a := g.Adjacency()
	t, _, iters := MFBF(a, sources)
	res := newSSSPResult(sources, g.N)
	res.Iterations = iters
	for s := 0; s < t.Rows; s++ {
		cols, vals := t.Row(s)
		for k, v := range cols {
			res.Dist[s][v] = vals[k].W
			res.Counts[s][v] = vals[k].M
		}
	}
	return res, nil
}

// SSSPDistributed runs the same sweep on the simulated machine, gathering
// the result at every rank. It is one region over a one-shot DistSession,
// so options are checked, and the plan searched, exactly as for
// MFBCDistributed.
func SSSPDistributed(g *graph.Graph, sources []int32, opt DistOptions) (*SSSPResult, machine.RunStats, error) {
	sess, err := NewDistSession(g, opt)
	if err != nil {
		return nil, machine.RunStats{}, err
	}
	if err := checkSSSPSources(g.N, sources); err != nil {
		return nil, machine.RunStats{}, err
	}
	mach := transportFor(sess.p, opt)
	pl := sess.planner(mach, g)
	alg := scalarAlgebra()

	res := newSSSPResult(sources, g.N)
	var gathered *sparse.CSR[algebra.MultPath]
	stats, err := mach.Run(func(proc *machine.Proc) {
		rk := sess.ranks[proc.Rank()]
		sp := &sidePlans{sess: spgemm.NewSessionWithCache(proc, rk.cache), pls: []planner{pl}, plans: make([]spgemm.Plan, 1)}
		sp.sess.Workers = opt.Workers
		t, iters := sweepMFBF(sp, &sweepBufs[algebra.MultPath, algebra.CentPath]{index: &rk.index}, alg, rk.aMat, []*sparse.CSR[float64]{sess.adjCSR}, [][]bool{nil}, sources)
		full := distmat.Gather(proc.World(), t, alg.mult)
		if proc.Rank() == 0 {
			gathered, res.Iterations = full, iters
		}
	})
	if err != nil {
		return nil, stats, err
	}
	for s := 0; s < gathered.Rows; s++ {
		cols, vals := gathered.Row(s)
		for k, v := range cols {
			res.Dist[s][v] = vals[k].W
			res.Counts[s][v] = vals[k].M
		}
	}
	return res, stats, nil
}

// checkSSSPSources is CheckSources for callers that need at least one source.
func checkSSSPSources(n int, sources []int32) error {
	if len(sources) == 0 {
		return fmt.Errorf("core: no sources given")
	}
	return CheckSources(n, sources)
}

// CheckSources reports the first entry of an explicit source list that is
// not a vertex of an n-vertex graph. A nil or empty list passes.
func CheckSources(n int, sources []int32) error {
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("core: source %d outside [0,%d)", s, n)
		}
	}
	return nil
}
