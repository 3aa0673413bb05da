package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/testkit"
)

// sweepPin is everything one sequential batch produces, reduced to
// literals: FNV-64a over the float bits of bc and over the exported CSR T
// and Z (row pointers, column indices and every value component), plus
// the exact work counters of the two sweeps.
type sweepPin struct {
	BC, T, Z   uint64
	NNZ        int
	OpsF, OpsB int64
	ItF, ItB   int
}

// pinHash is FNV-64a fed eight little-endian bytes per value.
type pinHash struct{ hash.Hash64 }

func newPinHash() pinHash { return pinHash{fnv.New64a()} }

func (p pinHash) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	p.Write(buf[:])
}

func (p pinHash) f64(v float64) { p.u64(math.Float64bits(v)) }

func (p pinHash) pattern(rowPtr []int64, colIdx []int32) {
	for _, r := range rowPtr {
		p.u64(uint64(r))
	}
	for _, j := range colIdx {
		p.u64(uint64(j))
	}
}

// pinSweep runs MFBF, MFBr and the batch entry point on the same operands
// and reduces their outputs to a sweepPin. The batch entry point's scores
// must equal, to the bit, the fold of the exported Z and T.
func pinSweep(t *testing.T, name string, a *sparse.CSR[float64], sources []int32, workers int) (sweepPin, *sparse.CSR[algebra.MultPath], *sparse.CSR[algebra.CentPath]) {
	t.Helper()
	at := sparse.Transpose(a)
	tm, opsF, itF := MFBFParallel(a, sources, workers)
	zm, opsB, itB := MFBrParallel(at, tm, sources, workers)

	folded := make([]float64, a.Cols)
	testkit.ZipJoin(zm, tm, func(_, j int32, zc algebra.CentPath, m algebra.MultPath) {
		folded[j] += zc.P * m.M
	})
	bc := make([]float64, a.Cols)
	ops, iters := MFBCBatchParallel(a, at, sources, bc, workers)
	if ops != opsF+opsB || iters != itF+itB {
		t.Fatalf("%s: batch ops/iters %d/%d, sweeps say %d/%d", name, ops, iters, opsF+opsB, itF+itB)
	}
	for v := range bc {
		if math.Float64bits(bc[v]) != math.Float64bits(folded[v]) {
			t.Fatalf("%s: batch bc[%d] = %v, fold of exported Z and T says %v", name, v, bc[v], folded[v])
		}
	}

	pin := sweepPin{NNZ: tm.NNZ(), OpsF: opsF, OpsB: opsB, ItF: itF, ItB: itB}
	p := newPinHash()
	for _, v := range bc {
		p.f64(v)
	}
	pin.BC = p.Sum64()

	p = newPinHash()
	p.pattern(tm.RowPtr, tm.ColIdx)
	for _, v := range tm.Val {
		p.f64(v.W)
		p.f64(v.M)
	}
	pin.T = p.Sum64()

	p = newPinHash()
	p.pattern(zm.RowPtr, zm.ColIdx)
	for _, v := range zm.Val {
		p.f64(v.W)
		p.f64(v.P)
		p.u64(uint64(v.C))
	}
	pin.Z = p.Sum64()
	return pin, tm, zm
}

func strideSources(n, count, stride int) []int32 {
	sources := make([]int32, count)
	for i := range sources {
		sources[i] = int32((i * stride) % n)
	}
	return sources
}

// TestSeqSweepGolden pins the sequential MFBF/MFBr sweep to literals
// captured at the commit before the kernel was rewritten around a
// batch-resident workspace (PR 19's parent, the matrix-per-round form on
// sparse.Mul/EWise). A kernel change must reproduce every one of them: the
// scores, the exported T and Z to the bit, and the exact op and iteration
// counts.
func TestSeqSweepGolden(t *testing.T) {
	check := func(name string, got, want sweepPin) {
		t.Helper()
		if got != want {
			t.Errorf("%s: sequential sweep moved\n got  %#v\n want %#v", name, got, want)
		}
	}

	rmat := graph.RMAT(graph.DefaultRMAT(9, 8, 1))
	pin, _, _ := pinSweep(t, "rmat-s9", rmat.Adjacency(), strideSources(rmat.N, 32, 7), 1)
	check("rmat-s9 undirected x32", pin, sweepPin{BC: 0x4143acfb59fe20f2, T: 0x85d724d727fd5b01, Z: 0xee9f52f96732fcec, NNZ: 13088, OpsF: 176793, OpsB: 353586, ItF: 5, ItB: 5})

	dopt := graph.DefaultRMAT(9, 8, 2)
	dopt.Directed = true
	drmat := graph.RMAT(dopt)
	pin, _, _ = pinSweep(t, "rmat-s9-directed", drmat.Adjacency(), strideSources(drmat.N, 32, 5), 1)
	check("rmat-s9 directed x32", pin, sweepPin{BC: 0xa4504e4cd840620e, T: 0x2522411e52131080, Z: 0xfeeeb1269f83e63f, NNZ: 11841, OpsF: 98623, OpsB: 202036, ItF: 6, ItB: 6})

	// Weights on the 2⁻¹⁰ grid: sums of them are exact in float64, so the
	// equality screens see true ties (README "Known limits").
	mesh := graph.Grid2D(12, 12, 9, 3)
	rng := rand.New(rand.NewSource(4))
	for i := range mesh.Edges {
		mesh.Edges[i].W = math.Round((mesh.Edges[i].W+rng.Float64())*1024) / 1024
	}
	pin, _, _ = pinSweep(t, "mesh-12x12", mesh.Adjacency(), strideSources(mesh.N, 48, 3), 1)
	check("mesh 12x12 weighted x48", pin, sweepPin{BC: 0xdf7b578c52f4f693, T: 0xbee988006c09400, Z: 0x85600d4822418b4b, NNZ: 6864, OpsF: 29609, OpsB: 50344, ItF: 23, ItB: 23})

	// Two components and two isolated vertices: a source reaches only its
	// own component, and the exported CSR must not carry the other pairs.
	disc := graph.Uniform(40, 120, false, 5)
	comp := make([]int, disc.N+32)
	for _, e := range graph.Uniform(30, 70, false, 6).Edges {
		disc.Edges = append(disc.Edges, graph.Edge{U: e.U + 40, V: e.V + 40, W: e.W})
	}
	disc.N += 32
	adj, _ := disc.OutAdjacencyLists()
	for v := range comp {
		comp[v] = -1
	}
	for v := range comp {
		if comp[v] >= 0 {
			continue
		}
		for u, d := range graph.BFSDistances(adj, int32(v)) {
			if d >= 0 {
				comp[u] = v
			}
		}
	}
	discSources := strideSources(disc.N, 24, 3)
	pin, tm, zm := pinSweep(t, "disconnected", disc.Adjacency(), discSources, 1)
	for s, src := range discSources {
		reach := -1 // the source itself is suppressed
		for v := range comp {
			if comp[v] == comp[src] {
				reach++
			}
		}
		tc, _ := tm.Row(s)
		zc, _ := zm.Row(s)
		if len(tc) != reach || len(zc) != reach {
			t.Fatalf("disconnected: source %d reaches %d vertices, exported T/Z rows hold %d/%d", src, reach, len(tc), len(zc))
		}
		for _, v := range tc {
			if comp[v] != comp[src] || v == src {
				t.Fatalf("disconnected: exported T carries (%d,%d), which is unreachable or the diagonal", src, v)
			}
		}
	}
	check("disconnected x24", pin, sweepPin{BC: 0x235cb1ac9615be67, T: 0xce8dd410e5bb7a52, Z: 0xfd18c36efbb5eba7, NNZ: 826, OpsF: 4621, OpsB: 9242, ItF: 5, ItB: 5})

	// A self-loop on a source and on a bystander (graph.Validate rejects
	// them, the kernels must still ignore them): walks through a loop are
	// never shortest.
	loopy := graph.Uniform(50, 160, true, 8).Adjacency().ToCOO()
	loopy.Append(0, 0, 1)
	loopy.Append(9, 9, 2)
	loopy.Append(17, 17, 1)
	pin, tm, _ = pinSweep(t, "self-loop", sparse.FromCOO(loopy, algebra.TropicalMonoid()), []int32{0, 3, 9, 21}, 1)
	for s, src := range []int32{0, 3, 9, 21} {
		if _, ok := tm.Get(int32(s), src); ok {
			t.Fatalf("self-loop: T carries the diagonal of source %d", src)
		}
	}
	check("self-loop x4", pin, sweepPin{BC: 0xcb4601056e2dd207, T: 0x61179455d6b54997, Z: 0xbddce674990247fa, NNZ: 196, OpsF: 636, OpsB: 1272, ItF: 7, ItB: 7})

	pin, _, _ = pinSweep(t, "rmat-s9-nb1", rmat.Adjacency(), []int32{int32(rmat.N / 2)}, 1)
	check("rmat-s9 nb=1", pin, sweepPin{BC: 0x688665df60776395, T: 0x88853f0a69ade807, Z: 0x16ee6a9670219794, NNZ: 409, OpsF: 5542, OpsB: 11084, ItF: 4, ItB: 4})
}
