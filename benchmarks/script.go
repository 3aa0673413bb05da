package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// sizes fixes how much work one run of each workload performs. Iteration
// counts scale with -seconds (they are a pure function of it, never of a
// clock), so every run at the same -seconds executes identical work and
// yields identical sample counts.
type sizes struct {
	seqScale, seqSources, seqIters, seqCalibReps     int
	distScale, distSources, distIters, distCalibReps int
	edgeFactor                                       int

	meshSide, streamBatches, streamBaselineEvery, streamCalibReps int

	hotSide, coldScale, serveCycles, serveBurst, serveCalibReps int

	// probe* size the short runs of the other workloads' drivers that the
	// traced run uses to fill in every layer's row of the ledger.
	probeScale, probeSide, probeIters, probeBatches, probeCycles int
	setups                                                       int
}

// perSecond scales an iteration count that was tuned for the default
// 20-second run.
func perSecond(at20, seconds, floor int) int {
	n := at20 * seconds / 20
	if n < floor {
		n = floor
	}
	return n
}

func sizesFor(seconds int, smoke bool) sizes {
	if smoke {
		return sizes{
			seqScale: 7, seqSources: 8, seqIters: 3, seqCalibReps: 1,
			distScale: 6, distSources: 4, distIters: 3, distCalibReps: 1,
			edgeFactor: 4,
			meshSide:   5, streamBatches: 6, streamBaselineEvery: 2, streamCalibReps: 1,
			hotSide: 5, coldScale: 5, serveCycles: 3, serveBurst: 16, serveCalibReps: 1,
			probeScale: 5, probeSide: 4, probeIters: 2, probeBatches: 4, probeCycles: 2,
			setups: 1,
		}
	}
	return sizes{
		seqScale: 12, seqSources: 64, seqIters: perSecond(30, seconds, 5), seqCalibReps: 2,
		distScale: 10, distSources: 32, distIters: perSecond(28, seconds, 5), distCalibReps: 10,
		edgeFactor: 8,
		meshSide:   16, streamBatches: perSecond(192, seconds, 8), streamBaselineEvery: 8, streamCalibReps: 2,
		hotSide: 14, coldScale: 9, serveCycles: perSecond(84, seconds, 6), serveBurst: 480, serveCalibReps: 3,
		probeScale: 8, probeSide: 10, probeIters: 3, probeBatches: 12, probeCycles: 4,
		setups: 3,
	}
}

// script is everything a workload's run consumes, generated from the seed
// before the first timed section: the program under test only ever sees
// these inputs. Serialised with bytes() it is identical for identical
// (workload, seed, sizes).
type script struct {
	Workload string
	Seed     int64
	Graph    *graph.Graph // seq-rmat, dist-rmat: the RMAT graph; stream-road: the mesh; serve-mixed: "hot"
	Cold     *graph.Graph `json:",omitempty"` // serve-mixed only
	// SourceSets[0] is the warm-up iteration's source batch; iteration i of
	// the timed script uses SourceSets[i+1].
	SourceSets [][]int32 `json:",omitempty"`
	// Batches[0] is the warm-up batch applied during set-up; the rest are
	// the timed script. Classes[i] names the class of Batches[i].
	Batches [][]graph.Mutation `json:",omitempty"`
	Classes []string           `json:",omitempty"`
}

func (s *script) bytes() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("script: %v", err)) // plain data; cannot fail
	}
	return b
}

// subRNG derives an independent stream per use from the run seed.
func subRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// graphSeed generates every base graph. The graphs are the benchmark's
// fixed datasets: how many rounds a sweep needs, and so what an operation
// costs, is a property of the graph, and a metric that moved with the
// graph from seed to seed could not carry a tight regression bound. The
// run seed draws what is done to them: source batches and mutations.
const graphSeed = 20170911

func rmat(scale, edgeFactor int) *graph.Graph {
	return graph.RMAT(graph.DefaultRMAT(scale, edgeFactor, graphSeed))
}

// weightGrid quantises a weight to a multiple of 2⁻¹⁰. The engines under
// test compare path weights for equality after adding and subtracting edge
// weights in different orders; on this grid every such sum is exact in
// float64, so they agree with the oracle to the last bit, while 29·2¹⁰
// distinct weights keep shortest paths all but unique.
func weightGrid(w float64) float64 { return math.Round(w*1024) / 1024 }

// weightedMesh is the road-like graph: a side×side grid with near-
// continuous weights in [1,30], so shortest paths are unique and
// Bellman-Ford needs many rounds over narrow frontiers.
func weightedMesh(side int) *graph.Graph {
	g := graph.Grid2D(side, side, 1, 0)
	rng := rand.New(rand.NewSource(graphSeed))
	for i := range g.Edges {
		g.Edges[i].W = weightGrid(1 + 29*rng.Float64())
	}
	g.Weighted = true
	g.Name = fmt.Sprintf("mesh-%dx%d", side, side)
	return g
}

// sourceBatches draws sets batches of k distinct sources each, ascending.
// Every iteration gets its own batch so that a run's medians are taken
// over many batches and do not hinge on how far one batch happens to
// reach.
func sourceBatches(rng *rand.Rand, n, k, sets int) [][]int32 {
	if k > n {
		k = n
	}
	out := make([][]int32, sets)
	for i := range out {
		src := make([]int32, k)
		for j, v := range rng.Perm(n)[:k] {
			src[j] = int32(v)
		}
		sort.Slice(src, func(a, b int) bool { return src[a] < src[b] })
		out[i] = src
	}
	return out
}

const (
	classLocal    = "local"    // an edge on the shortest paths of a few sources (n/64..n/32): incremental territory
	classArterial = "arterial" // an edge on the shortest paths of at least half the sources: past any dirty threshold
)

// classBand is the interval of edge usage (sources whose shortest-path
// DAG contains the edge, of n) that makes an edge a member of class.
func classBand(class string, n int) (lo, hi int) {
	if class == classLocal {
		return max(1, n/64), max(1, n/32)
	}
	return n / 2, n
}

// outside is how far a usage lies outside [lo, hi]; 0 inside.
func outside(used, lo, hi int) int {
	return max(lo-used, used-hi, 0)
}

// reweightBatches generates n single-edge set_weight batches (weight
// ×[1.05,1.20], kept on the weight grid) cycling through classes. Each
// edge is drawn uniformly from the edges that are in the batch's class on
// the graph as mutated up to the start of the current round of classes; a
// shadow copy tracks the weights, so every mutation is valid when applied
// in order. Works on unweighted graphs too: the first reweight
// turns them weighted.
func reweightBatches(g *graph.Graph, rng *rand.Rand, n int, classes []string) ([][]graph.Mutation, []string) {
	shadow := g.Clone()
	// Canonical (U,V) order up front: the first mutation would sort the
	// edges anyway, and usage is indexed by edge position.
	sort.Slice(shadow.Edges, func(a, b int) bool {
		ea, eb := shadow.Edges[a], shadow.Edges[b]
		return ea.U < eb.U || ea.U == eb.U && ea.V < eb.V
	})
	var b brandes
	batches := make([][]graph.Mutation, n)
	names := make([]string, n)
	var pool []int
	var used []int
	for i := range batches {
		class := classes[i%len(classes)]
		if i%len(classes) == 0 {
			// One usage pass per round of classes: a single reweight moves
			// few paths, and the pass is most of what script generation costs.
			b.load(shadow)
			used = b.edgeUsage(len(shadow.Edges))
		}
		// The pool is the class's members, or when it has none (tiny
		// graphs) the edges whose usage comes closest to its band.
		lo, hi := classBand(class, shadow.N)
		nearest := shadow.N
		for _, u := range used {
			nearest = min(nearest, outside(u, lo, hi))
		}
		pool = pool[:0]
		for id, u := range used {
			if outside(u, lo, hi) == nearest {
				pool = append(pool, id)
			}
		}
		e := shadow.Edges[pool[rng.Intn(len(pool))]]
		m := graph.Mutation{Op: graph.OpSetWeight, U: e.U, V: e.V, W: weightGrid(e.W * (1.05 + 0.15*rng.Float64()))}
		if err := shadow.Apply(m); err != nil {
			panic(fmt.Sprintf("script: generated an invalid mutation: %v", err))
		}
		batches[i], names[i] = []graph.Mutation{m}, class
	}
	return batches, names
}

// baseGraph generates the workload's fixed graph (nil for an unknown
// workload).
func baseGraph(workload string, sz sizes) *graph.Graph {
	switch workload {
	case "seq-rmat":
		return rmat(sz.seqScale, sz.edgeFactor)
	case "dist-rmat":
		return rmat(sz.distScale, sz.edgeFactor)
	case "stream-road":
		return weightedMesh(sz.meshSide)
	case "serve-mixed":
		return weightedMesh(sz.hotSide)
	}
	return nil
}

func newScript(workload string, seed int64, sz sizes) (*script, error) {
	s := &script{Workload: workload, Seed: seed, Graph: baseGraph(workload, sz)}
	switch workload {
	case "seq-rmat":
		s.SourceSets = sourceBatches(subRNG(seed, 15), s.Graph.N, sz.seqSources, sz.seqIters+1)
	case "dist-rmat":
		s.SourceSets = sourceBatches(subRNG(seed, 16), s.Graph.N, sz.distSources, sz.distIters+1)
	case "stream-road":
		s.Batches, s.Classes = reweightBatches(s.Graph, subRNG(seed, 13), sz.streamBatches+1,
			[]string{classLocal, classLocal, classLocal, classArterial})
	case "serve-mixed":
		s.Cold = rmat(sz.coldScale, sz.edgeFactor)
		s.Batches, s.Classes = reweightBatches(s.Graph, subRNG(seed, 14), sz.serveCycles+1,
			[]string{classArterial})
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return s, nil
}

// skeleton returns g with every weight set to 1: the CombBLAS-style
// baseline handles unweighted graphs only, so on a weighted graph it runs
// (and is checked) on the same topology without weights.
func skeleton(g *graph.Graph) *graph.Graph {
	if !g.Weighted {
		return g
	}
	c := g.Clone()
	for i := range c.Edges {
		c.Edges[i].W = 1
	}
	c.Weighted = false
	return c
}
