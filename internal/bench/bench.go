// Package bench is the paper's evaluation (§7) and nothing else: one
// ordered grid of experiments, a row per table and figure plus the two
// design-choice ablations (decomposition space, batch size). Run prints the
// same rows/series the paper reports and returns them as data for tests and
// for mfbc-bench -json.
//
// Performance is reported in MTEPS/node computed from the *modeled*
// critical-path time T = γ·flops + β·bytes + α·msgs of the simulated
// machine: the host runs every rank on a handful of cores, so modeled
// time, not host wall time, carries the scaling shapes; wall time is
// reported alongside.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"

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
	c.Out = cmp.Or(c.Out, io.Discard)
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 4, 16, 64}
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	c.Scale, c.Seed = max(c.Scale, 1), cmp.Or(c.Seed, 42)
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

// point is one measurement: engine on p ranks with a batch of nb sources
// under constraint cons, on graph g of its step, whose name label extends
// ("orkut-sim" + "/1D-only"). Engine "" is table2's statistics (nb BFS sources).
type point struct {
	engine string
	g      int
	p, nb  int
	cons   spgemm.Constraint
	label  string
}

var mfbc, combblas = point{engine: "ctf-mfbc"}, point{engine: "combblas"}

// at places the templates on every p of procs, in that order.
func at(procs []int, nb int, templates ...point) (pts []point) {
	for _, p := range procs {
		for _, t := range templates {
			t.p, t.nb = p, nb
			pts = append(pts, t)
		}
	}
	return pts
}

// A step is the graphs one stretch of an experiment measures and its
// points on them. Run builds them as it reaches the step, one step's graphs
// at a time: at p = 64, full-size fig2a reaches n = 32,768, fig2b 65,536.
type step struct {
	build  func() ([]*graph.Graph, error)
	points []point
}

var standinIDs = []string{"friendster-sim", "orkut-sim", "livejournal-sim", "patents-sim"}

// standins is a step per stand-in, each measuring pts.
func standins(cfg Config, ids []string, pts []point) (steps []step) {
	for _, id := range ids {
		steps = append(steps, step{func() ([]*graph.Graph, error) {
			g, err := graph.Standin(id, cfg.Scale, cfg.Seed)
			return []*graph.Graph{g}, err
		}, pts})
	}
	return steps
}

// uniform is one G(n, m) graph, measured on both engines at p.
func uniform(cfg Config, name string, n, m, p int) step {
	return step{func() ([]*graph.Graph, error) {
		g := graph.Uniform(n, m, false, cfg.Seed+int64(n))
		g.Name = name
		return []*graph.Graph{g}, nil
	}, at([]int{p}, cfg.Batch, mfbc, combblas)}
}

// pick is full, or quick in quick mode.
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// An experiment is one row of the grid: its id, its format, and its title
// and steps for a filled Config. Rows on one p take the largest -procs entry.
type experiment struct {
	id     string
	format format
	plan   func(cfg Config) (string, []step)
}

var grid = []experiment{
	{"table2", stats, func(cfg Config) (string, []step) {
		return "Table 2: analyzed real-world graphs (synthetic stand-ins; paper originals in parentheses)",
			standins(cfg, standinIDs, []point{{nb: pick(cfg, 32, 8)}})
	}},
	{"fig1a", rates, func(cfg Config) (string, []step) {
		return "Figure 1(a): strong scaling of MFBC for real graphs (stand-ins)",
			standins(cfg, pick(cfg, standinIDs, standinIDs[1:3]), at(cfg.Procs, cfg.Batch, mfbc))
	}},
	// No friendster-sim: the paper's CombBLAS could not execute Friendster.
	{"fig1b", rates, func(cfg Config) (string, []step) {
		return "Figure 1(b): strong scaling of CombBLAS-style BC for real graphs (stand-ins)",
			standins(cfg, pick(cfg, standinIDs[1:], standinIDs[1:3]), at(cfg.Procs, cfg.Batch, combblas))
	}},
	// R-MAT with E ∈ {8, 128}, unweighted (g 0) and weighted (g 1).
	{"fig1c", rates, func(cfg Config) (title string, steps []step) {
		scale := pick(cfg, 11, 9)
		for _, e := range []int{8, 128} {
			steps = append(steps, step{func() ([]*graph.Graph, error) {
				base := graph.RMAT(graph.DefaultRMAT(scale, e, cfg.Seed))
				weighted := graph.RMAT(graph.DefaultRMAT(scale, e, cfg.Seed))
				weighted.AddUniformWeights(1, 100, cfg.Seed+1)
				weighted.Name = base.Name + "-w"
				return []*graph.Graph{base, weighted}, nil
			}, at(cfg.Procs, cfg.Batch, mfbc, combblas, point{engine: mfbc.engine, g: 1})})
		}
		return "Figure 1(c): strong scaling for R-MAT graphs (weighted and unweighted)", steps
	}},
	// Edge weak scaling: n²/p and the fill f = m/n² held, so n grows with √p.
	{"fig2a", rates, func(cfg Config) (title string, steps []step) {
		series := [][2]float64{{1024, 0.005}, {1024, 0.0005}, {4096, 0.0005}, {4096, 0.00005}} // {n0, f}
		for _, s := range pick(cfg, series, series[:2]) {
			for _, p := range cfg.Procs {
				n := int(s[0] * sqrtInt(p))
				steps = append(steps, uniform(cfg, fmt.Sprintf("uni-n0=%d-f=%.3g%%", int(s[0]), s[1]*100), n, int(s[1]*float64(n)*float64(n)), p))
			}
		}
		return "Figure 2(a): edge weak scaling for uniform random graphs", steps
	}},
	// Vertex weak scaling: n/p and the degree k = m/n held, so n grows with p.
	{"fig2b", rates, func(cfg Config) (title string, steps []step) {
		series := [][2]int{{256, 96}, {256, 16}, {1024, 16}, {1024, 4}} // {n0, k}
		for _, s := range pick(cfg, series, series[1:3]) {
			for _, p := range cfg.Procs {
				steps = append(steps, uniform(cfg, fmt.Sprintf("uni-n0=%d-k=%d", s[0], s[1]), s[0]*p, s[1]*s[0]*p/2, p))
			}
		}
		return "Figure 2(b): vertex weak scaling for uniform random graphs", steps
	}},
	{"table3", costs, func(cfg Config) (string, []step) {
		p, nb := slices.Max(cfg.Procs), 2*cfg.Batch
		return fmt.Sprintf("Table 3: critical path costs, single batch of %d sources on p=%d", nb, p),
			standins(cfg, pick(cfg, standinIDs[1:], standinIDs[1:2]), at([]int{p}, nb, combblas, mfbc))
	}},
	// Forced 1D / 2D / 3D decompositions against the automatic search (§5.2, §6).
	{"ablate-decomp", rates, func(cfg Config) (string, []step) {
		p := slices.Max(cfg.Procs)
		return fmt.Sprintf("Ablation: decomposition space on p=%d", p), standins(cfg, []string{"orkut-sim"}, at([]int{p}, cfg.Batch,
			point{engine: mfbc.engine, label: "/auto"}, point{engine: mfbc.engine, cons: spgemm.Only1D, label: "/1D-only"},
			point{engine: mfbc.engine, cons: spgemm.Only2D, label: "/2D-only"}, point{engine: mfbc.engine, cons: spgemm.Only3D, label: "/3D-only"}))
	}},
	// The batch size n_b (§4's time/memory trade-off), on a quarter of the largest p.
	{"ablate-batch", rates, func(cfg Config) (string, []step) {
		p := max(slices.Max(cfg.Procs)/4, 1)
		var pts []point
		for _, nb := range pick(cfg, []int{4, 16, 64, 256}, []int{4, 16}) {
			pts = append(pts, at([]int{p}, nb, mfbc)...)
		}
		return fmt.Sprintf("Ablation: batch size n_b on p=%d", p), standins(cfg, []string{"livejournal-sim"}, pts)
	}},
}

// Experiments lists the available experiment ids in presentation order.
var Experiments = func() (ids []string) {
	for _, e := range grid {
		ids = append(ids, e.id)
	}
	return ids
}()

// Run executes one experiment by id. An unknown transport fails the run
// before any point is measured.
func Run(id string, cfg Config) ([]Point, error) {
	cfg.fill()
	i := slices.IndexFunc(grid, func(e experiment) bool { return e.id == id })
	switch {
	case cfg.Transport != "" && cfg.Transport != "sim" && cfg.Transport != "tcp":
		return nil, fmt.Errorf("bench: unknown transport %q (want sim or tcp)", cfg.Transport)
	case i < 0:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
	}
	title, steps := grid[i].plan(cfg)
	fmt.Fprintf(cfg.Out, "\n== %s ==\n%s", title, grid[i].format.header)
	var pts []Point
	for _, s := range steps {
		gs, err := s.build()
		if err != nil {
			return nil, err
		}
		for _, pt := range s.points {
			r, st := measure(id, gs[pt.g], cfg, pt)
			grid[i].format.row(cfg.Out, r, st)
			pts = append(pts, r)
		}
	}
	return pts, nil
}

// measure takes one point on g. It returns the Point and, for table2, the
// statistics Point has no column for.
func measure(exp string, g *graph.Graph, cfg Config, pt point) (r Point, st graph.Stats) {
	r = Point{Experiment: exp, Graph: g.Name + pt.label, N: g.N, M: g.M()}
	if pt.engine == "" {
		st = graph.ComputeStats(g, pt.nb, cfg.Seed)
		r.Iters, r.MTEPSNode = st.Diameter, st.AvgDegree
		return r, st
	}
	sources := sampleSources(g.N, pt.nb, cfg.Seed)
	r.Engine, r.Weighted, r.Procs, r.Batch = pt.engine, g.Weighted, pt.p, len(sources)
	tr, done, err := cfg.newTransport(pt.p)
	if err != nil {
		r.Err = err.Error()
		return r, st
	}
	defer done()
	var res *core.DistResult
	if pt.engine == combblas.engine {
		var cb *baseline.DistCombBLASResult
		if cb, err = baseline.CombBLASStyleDistributed(g, baseline.DistCombBLASOptions{
			Procs: pt.p, Batch: len(sources), Sources: sources, Transport: tr}); err == nil {
			res = &core.DistResult{Plan: cb.Plan, Stats: cb.Stats, Iterations: cb.Levels}
		}
	} else {
		res, err = core.MFBCDistributed(g, core.DistOptions{
			Procs: pt.p, Workers: cfg.Workers, Batch: len(sources), Sources: sources, Constraint: pt.cons, Transport: tr})
	}
	if err != nil {
		r.Err = err.Error()
		return r, st
	}
	r.Plan, r.Iters, r.Bytes, r.Msgs = res.Plan.String(), res.Iterations, res.Stats.MaxCost.Bytes, res.Stats.MaxCost.Msgs
	r.ModelSec, r.CommSec, r.WallSec = res.Stats.ModelSec, res.Stats.CommSec, res.Stats.Wall.Seconds()
	r.MTEPSNode = mteps(g.AdjacencyNNZ(), len(sources), pt.p, res.Stats.ModelSec)
	return r, st
}

// A format is a column header and a row per point: Table 2's statistics,
// Table 3's costs, or the rate table every other experiment prints.
type format struct {
	header string
	row    func(w io.Writer, r Point, st graph.Stats)
}

var rates = format{"graph              engine        p  batch  MTEPS/nd   model(s)    comm(s)    wall(s)    iters plan\n",
	func(w io.Writer, r Point, _ graph.Stats) {
		if r.Err != "" {
			fmt.Fprintf(w, "%-18s %-9s %5d %6d %9s   failed: %s\n", r.Graph, r.Engine, r.Procs, r.Batch, "n/a", r.Err)
			return
		}
		fmt.Fprintf(w, "%-18s %-9s %5d %6d %9.2f %10.4f %10.4f %10.3f %8d %s\n",
			r.Graph, r.Engine, r.Procs, r.Batch, r.MTEPSNode, r.ModelSec, r.CommSec, r.WallSec, r.Iters, r.Plan)
	}}

var stats = format{"ID                 directed?          n          m       d     d90       k\n",
	func(w io.Writer, r Point, st graph.Stats) {
		spec := graph.Standins[slices.IndexFunc(graph.Standins, func(s graph.StandinSpec) bool { return s.ID == r.Graph })]
		fmt.Fprintf(w, "%-18s %-10v %9d %10d %7d %7.1f %7.1f   (paper: n=%.1fM m=%.0fM d=%d)\n",
			r.Graph, st.Directed, st.N, st.M, st.Diameter, st.EffDiam, st.AvgDegree,
			float64(spec.PaperN)/1e6, float64(spec.PaperM)/1e6, spec.PaperDiam)
	}}

var costs = format{"graph              code            W (MB)    S (#msgs)     comm (s)    total (s)\n",
	func(w io.Writer, r Point, _ graph.Stats) {
		if r.Err != "" {
			fmt.Fprintf(w, "%-18s %-9s   failed: %s\n", r.Graph, r.Engine, r.Err)
			return
		}
		fmt.Fprintf(w, "%-18s %-9s %12.3f %12d %12.4f %12.4f\n", r.Graph, r.Engine, float64(r.Bytes)/1e6, r.Msgs, r.CommSec, r.ModelSec)
	}}

// sampleSources draws nb distinct source vertices.
func sampleSources(n, nb int, seed int64) []int32 {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int32, min(nb, n))
	for i := range out {
		out[i] = int32(perm[i])
	}
	slices.Sort(out)
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

func sqrtInt(p int) float64 {
	x := 1.0
	for x*x < float64(p) {
		x++
	}
	return x
}
