package baseline

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// DistCombBLASOptions configures a distributed CombBLAS-style run.
type DistCombBLASOptions struct {
	Procs   int
	Batch   int     // sources per sweep; ≤0 selects min(n, 128)
	Sources []int32 // when non-nil, sweep only these, in Batch-sized chunks
	// Transport pins the run to an external machine backend (its Size
	// must equal Procs); nil uses the in-process simulated machine.
	Transport machine.Transport
}

// DistCombBLASResult carries scores plus machine statistics.
type DistCombBLASResult struct {
	BC     []float64
	Plan   spgemm.Plan
	Stats  machine.RunStats
	Levels int // total BFS levels processed across batches
}

// squarest2D returns the most square pr×pc factorization, CombBLAS's grid
// requirement (the library insists on square process grids; we take the
// nearest factorization for non-square p).
func squarest2D(p int) (int, int) {
	best := [2]int{1, p}
	for _, f := range machine.Factorizations2(p) {
		if abs64(f[0]-f[1]) < abs64(best[0]-best[1]) {
			best = f
		}
	}
	return best[0], best[1]
}

func abs64(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CombBLASStyleDistributed runs the CombBLAS-style batched algebraic BC on
// the simulated machine. Faithful to the library the paper compares
// against, it uses only a 2D SUMMA decomposition (no 3D replication), keeps
// every BFS level's frontier resident, and rejects weighted graphs.
func CombBLASStyleDistributed(g *graph.Graph, opt DistCombBLASOptions) (*DistCombBLASResult, error) {
	if g.Weighted {
		return nil, fmt.Errorf("combblas: weighted graphs are not supported (the paper's CombBLAS limitation)")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("combblas: %w", err)
	}
	p := opt.Procs
	if p < 1 {
		p = 1
	}
	nb := opt.Batch
	if nb <= 0 {
		nb = 128
	}
	if nb > g.N {
		nb = g.N
	}
	pr, pc := squarest2D(p)
	plan := spgemm.Plan{P1: 1, P2: pr, P3: pc, X: spgemm.RoleA, YZ: spgemm.VarAB}

	trop := algebra.TropicalMonoid()
	adjCSR := g.Adjacency()
	adjCOO := adjCSR.ToCOO()
	atCOO := sparse.Transpose(adjCSR).ToCOO()

	mach := opt.Transport
	if mach == nil {
		mach = sim.New(p)
	} else if mach.Size() != p {
		return nil, fmt.Errorf("combblas: transport has %d ranks, want %d", mach.Size(), p)
	}
	sources := opt.Sources
	if sources == nil {
		sources = make([]int32, g.N)
		for s := range sources {
			sources[s] = int32(s)
		}
	}
	res := &DistCombBLASResult{Plan: plan, BC: make([]float64, g.N)}
	bcPer := make([][]float64, p)
	levelsPer := make([]int, p)

	stats, err := mach.Run(func(proc *machine.Proc) {
		world := proc.World()
		sess := spgemm.NewSession(proc)
		shard := distmat.DistShard(p)
		aMat := spgemm.NewStationary(distmat.FromGlobal(proc.Rank(), adjCOO, shard, trop))
		atMat := spgemm.NewStationary(distmat.FromGlobal(proc.Rank(), atCOO, shard, trop))
		bc := make([]float64, g.N)
		totalLevels := 0
		for lo := 0; lo < len(sources); lo += nb {
			batch := sources[lo:min(lo+nb, len(sources))]
			totalLevels += distCombBLASBatch(sess, plan, aMat, atMat, batch, g.N, shard, bc)
		}
		total := machine.Allreduce(world, bc, func(a, b float64) float64 { return a + b })
		bcPer[proc.Rank()] = total
		levelsPer[proc.Rank()] = totalLevels
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	res.Levels = levelsPer[0]
	copy(res.BC, bcPer[0])
	return res, nil
}

// distCombBLASBatch runs one forward+backward sweep distributed; returns the
// number of BFS levels.
func distCombBLASBatch(
	sess *spgemm.Session, plan spgemm.Plan,
	aMat, atMat *spgemm.Stationary[float64],
	sources []int32, n int, shard distmat.Dist, bc []float64,
) int {
	count := algebra.CountMonoid()
	world := sess.Proc.World()
	nb := len(sources)

	init := sparse.NewCOO[float64](nb, n)
	for s, src := range sources {
		init.Append(int32(s), src, 1)
	}
	frontier := distmat.FromGlobal(world.Rank(), init, shard, count)
	nsp := frontier
	levels := []*distmat.Mat[float64]{frontier}
	copyX := func(x, _ float64) float64 { return x }

	for {
		if distmat.GlobalNNZ(world, frontier) == 0 {
			break
		}
		next := spgemm.Multiply(sess, plan, frontier, aMat, copyX, count, nil, nil)
		nsp = distmat.Redistribute(world, nsp, next.Dist)
		next = &distmat.Mat[float64]{
			Rows: nb, Cols: n, Dist: next.Dist,
			Local: maskEntries(next.Local, nsp.Local, false),
		}
		if distmat.GlobalNNZ(world, next) == 0 {
			break
		}
		nsp = distmat.EWise(nsp, next, count)
		levels = append(levels, next)
		frontier = next
	}

	// Backward sweep. All level matrices share nsp's distribution except
	// possibly level 0 (still in the shard layout when the loop broke
	// early); align lazily.
	delta := &distmat.Mat[float64]{Rows: nb, Cols: n, Dist: nsp.Dist}
	for l := len(levels) - 1; l >= 1; l-- {
		lvl := distmat.Redistribute(world, levels[l], nsp.Dist)
		w := &distmat.Mat[float64]{
			Rows: nb, Cols: n, Dist: nsp.Dist,
			Local: scaleByJoin(lvl.Local, delta.Local, nsp.Local),
		}
		u := spgemm.Multiply(sess, plan, w, atMat, copyX, count, nil, nil)
		prev := distmat.Redistribute(world, levels[l-1], u.Dist)
		nsp = distmat.Redistribute(world, nsp, u.Dist)
		delta = distmat.Redistribute(world, delta, u.Dist)
		masked := maskEntries(u.Local, prev.Local, true)
		scaled := mulByJoin(masked, nsp.Local)
		delta = distmat.EWise(delta, &distmat.Mat[float64]{Rows: nb, Cols: n, Dist: u.Dist, Local: scaled}, count)
	}
	for _, e := range delta.Local {
		if e.J != sources[e.I] {
			bc[e.J] += e.V
		}
	}
	return len(levels)
}

// maskEntries filters sorted entries a by membership of their coordinate in
// the sorted slice m.
func maskEntries(a, m []sparse.Entry[float64], keep bool) []sparse.Entry[float64] {
	var out []sparse.Entry[float64]
	y := 0
	for _, e := range a {
		for y < len(m) && lessEntry(m[y], e) {
			y++
		}
		present := y < len(m) && m[y].I == e.I && m[y].J == e.J
		if present == keep {
			out = append(out, e)
		}
	}
	return out
}

// scaleByJoin computes, per entry of lvl, (1 + delta)/nsp using the values
// of the co-distributed delta and nsp slices (w of the backward sweep).
func scaleByJoin(lvl, delta, nsp []sparse.Entry[float64]) []sparse.Entry[float64] {
	out := make([]sparse.Entry[float64], 0, len(lvl))
	d, s := 0, 0
	for _, e := range lvl {
		dv := 0.0
		for d < len(delta) && lessEntry(delta[d], e) {
			d++
		}
		if d < len(delta) && delta[d].I == e.I && delta[d].J == e.J {
			dv = delta[d].V
		}
		for s < len(nsp) && lessEntry(nsp[s], e) {
			s++
		}
		sv := 1.0
		if s < len(nsp) && nsp[s].I == e.I && nsp[s].J == e.J {
			sv = nsp[s].V
		}
		out = append(out, sparse.Entry[float64]{I: e.I, J: e.J, V: (1 + dv) / sv})
	}
	return out
}

// mulByJoin multiplies entries of a by the co-located nsp values.
func mulByJoin(a, nsp []sparse.Entry[float64]) []sparse.Entry[float64] {
	out := make([]sparse.Entry[float64], 0, len(a))
	s := 0
	for _, e := range a {
		for s < len(nsp) && lessEntry(nsp[s], e) {
			s++
		}
		if s < len(nsp) && nsp[s].I == e.I && nsp[s].J == e.J {
			out = append(out, sparse.Entry[float64]{I: e.I, J: e.J, V: e.V * nsp[s].V})
		}
	}
	return out
}

func lessEntry(a, b sparse.Entry[float64]) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}
