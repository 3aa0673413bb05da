// Package bench is the paper's evaluation (§7) and nothing else: one
// runner per table and figure, plus the two design-choice ablations
// (decomposition space, batch size). Runners print the same rows/series
// the paper reports and return them as data for tests and for
// mfbc-bench -json.
//
// Performance is reported in MTEPS/node computed from the *modeled*
// critical-path time T = γ·flops + β·bytes + α·msgs of the simulated
// machine: the host runs every rank on a handful of cores, so modeled
// time, not host wall time, carries the scaling shapes; wall time is
// reported alongside.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/tcpnet"
	"repro/internal/spgemm"
)

// Config scales and directs an experiment run.
type Config struct {
	Out     io.Writer
	Procs   []int // simulated node counts; default {1, 4, 16, 64}
	Workers int   // local kernel threads per simulated rank; 0 = all cores, 1 = sequential
	Scale   int   // stand-in scale multiplier (1 = defaults)
	Batch   int   // sources per timed batch; default 32
	Seed    int64
	Quick   bool // shrink workloads for smoke tests and testing.B
	// Transport selects the machine backend of every distributed run:
	// "" or "sim" is the in-process simulated machine; "tcp" brings up a
	// loopback rank-per-process mesh per run — real sockets carrying the
	// same program, with bit-identical modeled statistics, so the wall_sec
	// column measures actual transport overhead.
	Transport string
}

func (c *Config) fill() {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 4, 16, 64}
	}
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Point is one measured series point. The JSON tags are the schema of
// mfbc-bench's -json output (BENCH_*.json files).
type Point struct {
	Experiment string  `json:"experiment"`
	Graph      string  `json:"graph"`
	Engine     string  `json:"engine"` // "ctf-mfbc" | "combblas"
	Weighted   bool    `json:"weighted"`
	Procs      int     `json:"procs"`
	Batch      int     `json:"batch"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Plan       string  `json:"plan,omitempty"`
	MTEPSNode  float64 `json:"mteps_node"` // modeled MTEPS per node
	ModelSec   float64 `json:"model_sec"`  // modeled total time for the batch
	CommSec    float64 `json:"comm_sec"`   // modeled communication time
	WallSec    float64 `json:"wall_sec"`   // host wall time (informational)
	Bytes      int64   `json:"bytes"`      // critical-path bytes
	Msgs       int64   `json:"msgs"`       // critical-path messages
	Iters      int     `json:"iters"`
	Err        string  `json:"err,omitempty"` // engines can fail (reproducing the paper's CombBLAS failures)
}

// Experiments lists the available experiment ids in presentation order.
var Experiments = []string{
	"table2", "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "table3",
	"ablate-decomp", "ablate-batch",
}

// Run executes one experiment by id. An unknown transport fails the run
// before any point is measured.
func Run(id string, cfg Config) ([]Point, error) {
	cfg.fill()
	if cfg.Transport != "" && cfg.Transport != "sim" && cfg.Transport != "tcp" {
		return nil, fmt.Errorf("bench: unknown transport %q (want sim or tcp)", cfg.Transport)
	}
	switch id {
	case "table2":
		return Table2(cfg)
	case "fig1a":
		return Fig1a(cfg)
	case "fig1b":
		return Fig1b(cfg)
	case "fig1c":
		return Fig1c(cfg)
	case "fig2a":
		return Fig2a(cfg)
	case "fig2b":
		return Fig2b(cfg)
	case "table3":
		return Table3(cfg)
	case "ablate-decomp":
		return AblateDecomp(cfg)
	case "ablate-batch":
		return AblateBatch(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
	}
}

// sampleSources draws nb distinct source vertices.
func sampleSources(n, nb int, seed int64) []int32 {
	if nb > n {
		nb = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]int32, nb)
	for i := range out {
		out[i] = int32(perm[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// mteps converts a modeled batch time to millions of traversed edges per
// second per node: every adjacency nonzero is traversed once per source.
func mteps(adjNNZ, nb, procs int, modelSec float64) float64 {
	if modelSec <= 0 {
		return 0
	}
	return float64(adjNNZ) * float64(nb) / modelSec / 1e6 / float64(procs)
}

// newTransport builds the machine backend for one p-rank run. The nil
// transport keeps the library default (in-process simulated machine);
// "tcp" (Run has rejected any other name) starts a loopback mesh that the
// returned func tears down.
func (c Config) newTransport(p int) (machine.Transport, func(), error) {
	if c.Transport != "tcp" {
		return nil, func() {}, nil
	}
	mesh, err := tcpnet.StartLocalMesh(p, tcpnet.Options{})
	if err != nil {
		return nil, nil, err
	}
	return mesh, func() { mesh.Close() }, nil
}

// runMFBC measures one CTF-MFBC batch on cfg's machine backend.
func runMFBC(exp string, g *graph.Graph, cfg Config, procs, nb int, cons spgemm.Constraint, plan *spgemm.Plan) Point {
	sources := sampleSources(g.N, nb, cfg.Seed)
	pt := Point{
		Experiment: exp, Graph: g.Name, Engine: "ctf-mfbc", Weighted: g.Weighted,
		Procs: procs, Batch: len(sources), N: g.N, M: g.M(),
	}
	tr, done, err := cfg.newTransport(procs)
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	defer done()
	res, err := core.MFBCDistributed(g, core.DistOptions{
		Procs: procs, Workers: cfg.Workers, Sources: sources, Constraint: cons, Plan: plan,
		Transport: tr,
	})
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	pt.Plan = res.Plan.String()
	pt.ModelSec = res.Stats.ModelSec
	pt.CommSec = res.Stats.CommSec
	pt.WallSec = res.Stats.Wall.Seconds()
	pt.Bytes = res.Stats.MaxCost.Bytes
	pt.Msgs = res.Stats.MaxCost.Msgs
	pt.Iters = res.Iterations
	pt.MTEPSNode = mteps(g.AdjacencyNNZ(), len(sources), procs, res.Stats.ModelSec)
	return pt
}

// runCombBLAS measures one CombBLAS-style batch.
func runCombBLAS(exp string, g *graph.Graph, cfg Config, procs, nb int) Point {
	sources := sampleSources(g.N, nb, cfg.Seed)
	pt := Point{
		Experiment: exp, Graph: g.Name, Engine: "combblas", Weighted: g.Weighted,
		Procs: procs, Batch: len(sources), N: g.N, M: g.M(),
	}
	tr, done, err := cfg.newTransport(procs)
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	defer done()
	res, err := baseline.CombBLASStyleDistributed(g, baseline.DistCombBLASOptions{
		Procs: procs, Sources: sources, Transport: tr,
	})
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	pt.Plan = res.Plan.String()
	pt.ModelSec = res.Stats.ModelSec
	pt.CommSec = res.Stats.CommSec
	pt.WallSec = res.Stats.Wall.Seconds()
	pt.Bytes = res.Stats.MaxCost.Bytes
	pt.Msgs = res.Stats.MaxCost.Msgs
	pt.Iters = res.Levels
	pt.MTEPSNode = mteps(g.AdjacencyNNZ(), len(sources), procs, res.Stats.ModelSec)
	return pt
}

func printHeader(cfg Config, title string) {
	fmt.Fprintf(cfg.Out, "\n== %s ==\n", title)
	fmt.Fprintf(cfg.Out, "%-18s %-9s %5s %6s %9s %10s %10s %10s %8s %s\n",
		"graph", "engine", "p", "batch", "MTEPS/nd", "model(s)", "comm(s)", "wall(s)", "iters", "plan")
}

func printPoint(cfg Config, p Point) {
	if p.Err != "" {
		fmt.Fprintf(cfg.Out, "%-18s %-9s %5d %6d %9s   failed: %s\n",
			p.Graph, p.Engine, p.Procs, p.Batch, "n/a", p.Err)
		return
	}
	fmt.Fprintf(cfg.Out, "%-18s %-9s %5d %6d %9.2f %10.4f %10.4f %10.3f %8d %s\n",
		p.Graph, p.Engine, p.Procs, p.Batch, p.MTEPSNode, p.ModelSec, p.CommSec, p.WallSec, p.Iters, p.Plan)
}

// Table2 regenerates the real-graph property table from the SNAP stand-ins.
func Table2(cfg Config) ([]Point, error) {
	cfg.fill()
	fmt.Fprintf(cfg.Out, "\n== Table 2: analyzed real-world graphs (synthetic stand-ins; paper originals in parentheses) ==\n")
	fmt.Fprintf(cfg.Out, "%-18s %-10s %9s %10s %7s %7s %7s\n", "ID", "directed?", "n", "m", "d", "d90", "k")
	var pts []Point
	samples := 32
	if cfg.Quick {
		samples = 8
	}
	for _, spec := range graph.Standins {
		g, err := graph.Standin(spec.ID, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeStats(g, samples, cfg.Seed)
		fmt.Fprintf(cfg.Out, "%-18s %-10v %9d %10d %7d %7.1f %7.1f   (paper: n=%.1fM m=%.0fM d=%d)\n",
			spec.ID, st.Directed, st.N, st.M, st.Diameter, st.EffDiam, st.AvgDegree,
			float64(spec.PaperN)/1e6, float64(spec.PaperM)/1e6, spec.PaperDiam)
		pts = append(pts, Point{
			Experiment: "table2", Graph: spec.ID, N: st.N, M: st.M,
			Iters: st.Diameter, MTEPSNode: st.AvgDegree,
		})
	}
	return pts, nil
}

// Fig1a: strong scaling of CTF-MFBC on the real-graph stand-ins.
func Fig1a(cfg Config) ([]Point, error) {
	cfg.fill()
	printHeader(cfg, "Figure 1(a): strong scaling of MFBC for real graphs (stand-ins)")
	ids := []string{"friendster-sim", "orkut-sim", "livejournal-sim", "patents-sim"}
	if cfg.Quick {
		ids = ids[1:3]
	}
	var pts []Point
	for _, id := range ids {
		g, err := graph.Standin(id, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range cfg.Procs {
			pt := runMFBC("fig1a", g, cfg, p, cfg.Batch, spgemm.AnyPlan, nil)
			printPoint(cfg, pt)
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// Fig1b: strong scaling of the CombBLAS-style code on the stand-ins.
// Friendster-sim is skipped below 32 simulated nodes, reproducing the
// paper's observation that CombBLAS could not execute it.
func Fig1b(cfg Config) ([]Point, error) {
	cfg.fill()
	printHeader(cfg, "Figure 1(b): strong scaling of CombBLAS-style BC for real graphs (stand-ins)")
	ids := []string{"orkut-sim", "livejournal-sim", "patents-sim"}
	if cfg.Quick {
		ids = ids[:2]
	}
	var pts []Point
	for _, id := range ids {
		g, err := graph.Standin(id, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range cfg.Procs {
			pt := runCombBLAS("fig1b", g, cfg, p, cfg.Batch)
			printPoint(cfg, pt)
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// Fig1c: strong scaling on R-MAT graphs, weighted and unweighted,
// E ∈ {8, 128}.
func Fig1c(cfg Config) ([]Point, error) {
	cfg.fill()
	printHeader(cfg, "Figure 1(c): strong scaling for R-MAT graphs (weighted and unweighted)")
	scale := 11
	if cfg.Quick {
		scale = 9
	}
	var pts []Point
	for _, e := range []int{8, 128} {
		base := graph.RMAT(graph.DefaultRMAT(scale, e, cfg.Seed))
		weighted := graph.RMAT(graph.DefaultRMAT(scale, e, cfg.Seed))
		weighted.AddUniformWeights(1, 100, cfg.Seed+1)
		weighted.Name = base.Name + "-w"
		for _, p := range cfg.Procs {
			m := runMFBC("fig1c", base, cfg, p, cfg.Batch, spgemm.AnyPlan, nil)
			printPoint(cfg, m)
			c := runCombBLAS("fig1c", base, cfg, p, cfg.Batch)
			printPoint(cfg, c)
			w := runMFBC("fig1c", weighted, cfg, p, cfg.Batch, spgemm.AnyPlan, nil)
			printPoint(cfg, w)
			pts = append(pts, m, c, w)
		}
	}
	return pts, nil
}

// Fig2a: edge weak scaling on uniform random graphs — n²/p and the fill
// fraction f = m/n² held constant, so n grows with √p.
func Fig2a(cfg Config) ([]Point, error) {
	cfg.fill()
	printHeader(cfg, "Figure 2(a): edge weak scaling for uniform random graphs")
	type series struct {
		n0 int
		f  float64
	}
	set := []series{{1024, 0.005}, {1024, 0.0005}, {4096, 0.0005}, {4096, 0.00005}}
	if cfg.Quick {
		set = set[:2]
	}
	var pts []Point
	for _, s := range set {
		for _, p := range cfg.Procs {
			n := int(float64(s.n0) * sqrtInt(p))
			m := int(s.f * float64(n) * float64(n))
			g := graph.Uniform(n, m, false, cfg.Seed+int64(n))
			g.Name = fmt.Sprintf("uni-n0=%d-f=%.3g%%", s.n0, s.f*100)
			mp := runMFBC("fig2a", g, cfg, p, cfg.Batch, spgemm.AnyPlan, nil)
			printPoint(cfg, mp)
			cp := runCombBLAS("fig2a", g, cfg, p, cfg.Batch)
			printPoint(cfg, cp)
			pts = append(pts, mp, cp)
		}
	}
	return pts, nil
}

// Fig2b: vertex weak scaling — n/p and the average degree k = m/n held
// constant, so n grows linearly with p.
func Fig2b(cfg Config) ([]Point, error) {
	cfg.fill()
	printHeader(cfg, "Figure 2(b): vertex weak scaling for uniform random graphs")
	type series struct {
		n0, k int
	}
	set := []series{{256, 96}, {256, 16}, {1024, 16}, {1024, 4}}
	if cfg.Quick {
		set = set[1:3]
	}
	var pts []Point
	for _, s := range set {
		for _, p := range cfg.Procs {
			n := s.n0 * p
			m := s.k * n / 2
			g := graph.Uniform(n, m, false, cfg.Seed+int64(n))
			g.Name = fmt.Sprintf("uni-n0=%d-k=%d", s.n0, s.k)
			mp := runMFBC("fig2b", g, cfg, p, cfg.Batch, spgemm.AnyPlan, nil)
			printPoint(cfg, mp)
			cp := runCombBLAS("fig2b", g, cfg, p, cfg.Batch)
			printPoint(cfg, cp)
			pts = append(pts, mp, cp)
		}
	}
	return pts, nil
}

// Table3: critical-path communication costs for a single batch on the
// largest processor count, for both engines.
func Table3(cfg Config) ([]Point, error) {
	cfg.fill()
	p := cfg.Procs[len(cfg.Procs)-1]
	nb := cfg.Batch * 2
	fmt.Fprintf(cfg.Out, "\n== Table 3: critical path costs, single batch of %d sources on p=%d ==\n", nb, p)
	fmt.Fprintf(cfg.Out, "%-18s %-9s %12s %12s %12s %12s\n", "graph", "code", "W (MB)", "S (#msgs)", "comm (s)", "total (s)")
	ids := []string{"orkut-sim", "livejournal-sim", "patents-sim"}
	if cfg.Quick {
		ids = ids[:1]
	}
	var pts []Point
	for _, id := range ids {
		g, err := graph.Standin(id, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, run := range []func() Point{
			func() Point { return runCombBLAS("table3", g, cfg, p, nb) },
			func() Point { return runMFBC("table3", g, cfg, p, nb, spgemm.AnyPlan, nil) },
		} {
			pt := run()
			if pt.Err != "" {
				fmt.Fprintf(cfg.Out, "%-18s %-9s   failed: %s\n", pt.Graph, pt.Engine, pt.Err)
			} else {
				fmt.Fprintf(cfg.Out, "%-18s %-9s %12.3f %12d %12.4f %12.4f\n",
					pt.Graph, pt.Engine, float64(pt.Bytes)/1e6, pt.Msgs, pt.CommSec, pt.ModelSec)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// AblateDecomp compares forced 1D / 2D / 3D decompositions against the
// automatic search (§5.2 / §6 design space).
func AblateDecomp(cfg Config) ([]Point, error) {
	cfg.fill()
	p := cfg.Procs[len(cfg.Procs)-1]
	printHeader(cfg, fmt.Sprintf("Ablation: decomposition space on p=%d", p))
	g, err := graph.Standin("orkut-sim", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var pts []Point
	for _, c := range []struct {
		name string
		cons spgemm.Constraint
	}{
		{"auto", spgemm.AnyPlan},
		{"1D-only", spgemm.Only1D},
		{"2D-only", spgemm.Only2D},
		{"3D-only", spgemm.Only3D},
	} {
		pt := runMFBC("ablate-decomp", g, cfg, p, cfg.Batch, c.cons, nil)
		pt.Graph = g.Name + "/" + c.name
		printPoint(cfg, pt)
		pts = append(pts, pt)
	}
	return pts, nil
}

// AblateBatch sweeps the batch size n_b (§4's time/memory trade-off).
func AblateBatch(cfg Config) ([]Point, error) {
	cfg.fill()
	p := cfg.Procs[len(cfg.Procs)-1] / 4
	if p < 1 {
		p = 1
	}
	printHeader(cfg, fmt.Sprintf("Ablation: batch size n_b on p=%d", p))
	g, err := graph.Standin("livejournal-sim", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sizes := []int{4, 16, 64, 256}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	var pts []Point
	for _, nb := range sizes {
		pt := runMFBC("ablate-batch", g, cfg, p, nb, spgemm.AnyPlan, nil)
		printPoint(cfg, pt)
		pts = append(pts, pt)
	}
	return pts, nil
}

func sqrtInt(p int) float64 {
	x := 1.0
	for x*x < float64(p) {
		x++
	}
	return x
}
