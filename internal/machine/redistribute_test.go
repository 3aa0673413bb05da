// Differential for distmat.Redistribute, run under the backend conformance
// suite so the tcp mesh exercises the same path as the simulator: the
// counting pass, reused send storage and disjoint merge of the arriving
// runs must leave on every rank exactly what the textbook form leaves —
// concatenate what arrives in source-rank order, canonicalize, charge one
// flop per received entry — at the same modeled cost.
package machine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

var addF = algebra.Monoid[float64]{
	Identity: 0,
	Op:       func(a, b float64) float64 { return a + b },
	IsZero:   func(a float64) bool { return a == 0 },
}

// redistributeRef is the reference Redistribute: nothing, where the two
// distributions give every coordinate of the matrix the same owner, and
// otherwise parts by append, one all-to-all, concatenation, Canonicalize.
func redistributeRef(c *machine.Comm, m *distmat.Mat[float64], to distmat.Dist) []sparse.Entry[float64] {
	if placeAlike(m.Dist, to, m.Rows, m.Cols) {
		return m.Local
	}
	parts := make([][]sparse.Entry[float64], c.Size())
	for _, e := range m.Local {
		r := to.Owner(e.I, e.J)
		parts[r] = append(parts[r], e)
	}
	coo := sparse.COO[float64]{Rows: m.Rows, Cols: m.Cols, E: slices.Concat(machine.Alltoall(c, parts)...)}
	c.Proc().AddFlops(int64(len(coo.E)))
	coo.Canonicalize(addF)
	return coo.E
}

// placeAlike reports, coordinate by coordinate, whether a and b give every
// coordinate of a rows×cols matrix the same owner.
func placeAlike(a, b distmat.Dist, rows, cols int) bool {
	for i := int32(0); i < int32(rows); i++ {
		for j := int32(0); j < int32(cols); j++ {
			if a.Owner(i, j) != b.Owner(i, j) {
				return false
			}
		}
	}
	return true
}

// redistDists lists the distributions of an n×n matrix over p ranks the
// differential moves between: the three neutral ones, the row blocks again
// built apart (other storage, the same owners: nothing moves), and every
// operand and output distribution of every plan that tiles p — among them
// the p×1×1 plans' replicated operands, the shard's own hash.
func redistDists(p, n int) []distmat.Dist {
	out := []distmat.Dist{distmat.DistShard(p), testkit.DistRowBlock(p, n), testkit.DistColBlock(p, n), testkit.DistRowBlock(p, n)}
	for _, f := range machine.Factorizations3(p) {
		for _, x := range []spgemm.Role{spgemm.RoleA, spgemm.RoleB, spgemm.RoleC} {
			for _, yz := range []spgemm.Variant{spgemm.VarAB, spgemm.VarAC, spgemm.VarBC} {
				da, db, dc := spgemm.Dists(spgemm.Plan{P1: f[0], P2: f[1], P3: f[2], X: x, YZ: yz}, n, n, n)
				out = append(out, da, db, dc)
			}
		}
	}
	return out
}

// randomMatrix draws nnz distinct coordinates of an n×n matrix, sorted,
// with nonzero values.
func randomMatrix(rng *rand.Rand, n, nnz int) []sparse.Entry[float64] {
	seen := map[[2]int32]bool{}
	var out []sparse.Entry[float64]
	for len(out) < nnz {
		c := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if !seen[c] {
			seen[c] = true
			out = append(out, sparse.Entry[float64]{I: c[0], J: c[1], V: float64(1 + rng.Intn(9))})
		}
	}
	distmat.SortEntries(out)
	return out
}

// redistRegion moves global through the chain of distributions on every
// rank with move, recording each rank's block after every hop.
func redistRegion(global []sparse.Entry[float64], n int, chain []distmat.Dist, blocks [][][]sparse.Entry[float64],
	move func(*machine.Comm, *distmat.Mat[float64], distmat.Dist) []sparse.Entry[float64]) func(*machine.Proc) {
	return func(pr *machine.Proc) {
		m := &distmat.Mat[float64]{Rows: n, Cols: n, Dist: chain[0]}
		for _, e := range global {
			if chain[0].Owner(e.I, e.J) == pr.Rank() {
				m.Local = append(m.Local, e)
			}
		}
		for hop, to := range chain[1:] {
			m = &distmat.Mat[float64]{Rows: n, Cols: n, Dist: to, Local: move(pr.World(), m, to)}
			blocks[hop][pr.Rank()] = slices.Clone(m.Local)
		}
	}
}

func TestRedistributeMatchesCanonicalize(t *testing.T) {
	const n = 23
	for _, p := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(p)))
		dists := redistDists(p, n)
		// One chain visits every distribution twice, in two shuffled orders,
		// ending with a hop to the distribution it is in (the no-op) — so
		// each is a source and a target against varying partners.
		chain := []distmat.Dist{dists[0]}
		for round := 0; round < 2; round++ {
			for _, x := range rng.Perm(len(dists)) {
				chain = append(chain, dists[x])
			}
		}
		chain = append(chain, chain[len(chain)-1])
		for _, nnz := range []int{0, 1, 150} {
			global := randomMatrix(rng, n, nnz)
			newBlocks := func() [][][]sparse.Entry[float64] {
				b := make([][][]sparse.Entry[float64], len(chain)-1)
				for hop := range b {
					b[hop] = make([][]sparse.Entry[float64], p)
				}
				return b
			}
			got, want := newBlocks(), newBlocks()
			var gotStats, wantStats machine.RunStats
			t.Run(fmt.Sprintf("nnz=%d/merge", nnz), func(t *testing.T) {
				forEachBackend(t, p, redistRegion(global, n, chain, got, func(c *machine.Comm, m *distmat.Mat[float64], to distmat.Dist) []sparse.Entry[float64] {
					return distmat.Redistribute(c, m, to).Local
				}), func(_ *testing.T, s machine.RunStats) { gotStats = s })
			})
			t.Run(fmt.Sprintf("nnz=%d/canonicalize", nnz), func(t *testing.T) {
				forEachBackend(t, p, redistRegion(global, n, chain, want, redistributeRef),
					func(_ *testing.T, s machine.RunStats) { wantStats = s })
			})
			assertStatsEqual(t, "merge", gotStats, "canonicalize", wantStats)
			for hop := range want {
				total := 0
				for r := range want[hop] {
					if !slices.Equal(got[hop][r], want[hop][r]) {
						t.Fatalf("p=%d nnz=%d hop %d rank %d:\n got %v\nwant %v", p, nnz, hop, r, got[hop][r], want[hop][r])
					}
					total += len(got[hop][r])
				}
				if total != nnz {
					t.Fatalf("p=%d hop %d: %d entries survive of %d", p, hop, total, nnz)
				}
			}
		}
	}
}

// TestRedistributeSharedCoordinatePanics: two ranks holding one coordinate
// means the source distribution's owner is not a function of the
// coordinate; the rank both copies arrive at panics, naming it.
func TestRedistributeSharedCoordinatePanics(t *testing.T) {
	const p = 3
	bogus := distmat.NewDist(p, distmat.Owners{}) // every coordinate on rank 0
	for _, b := range listBackends() {
		t.Run(b.name, func(t *testing.T) {
			_, err := b.make(t, p).Run(func(pr *machine.Proc) {
				m := &distmat.Mat[float64]{Rows: 8, Cols: 8, Dist: bogus}
				if pr.Rank() < 2 {
					m.Local = []sparse.Entry[float64]{{I: 3, J: 4, V: 1}, {I: 5, J: int32(pr.Rank()), V: 2}}
				}
				distmat.Redistribute(pr.World(), m, testkit.DistRowBlock(p, 8))
			})
			if err == nil || !strings.Contains(err.Error(), "coordinate (3, 4) held by two runs") {
				t.Fatalf("want a panic naming (3, 4), got %v", err)
			}
		})
	}
}

// FuzzRedistribute drives the same differential from fuzzed shapes on the
// simulator; then MergeDisjoint against MergeRuns over runs cut from one
// matrix by a random owner per entry, or by row blocks (long segments);
// and MergeRuns alone over runs that do share coordinates (a valid matrix
// never produces those, Canonicalize defines them): small integer values
// fold exactly and commutatively, and cancel to zero often.
func FuzzRedistribute(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(60), uint16(0), uint16(1))
	f.Add(int64(2), uint8(1), uint8(0), uint16(2), uint16(3))
	f.Add(int64(3), uint8(8), uint8(200), uint16(40), uint16(7))
	f.Add(int64(4), uint8(3), uint8(5), uint16(3), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, pRaw, nnzRaw uint8, fromSel, toSel uint16) {
		const n = 17
		p := 1 + int(pRaw)%8
		rng := rand.New(rand.NewSource(seed))
		dists := redistDists(p, n)
		chain := []distmat.Dist{dists[int(fromSel)%len(dists)], dists[int(toSel)%len(dists)]}
		global := randomMatrix(rng, n, int(nnzRaw)%(n*n))
		got := [][][]sparse.Entry[float64]{make([][]sparse.Entry[float64], p)}
		want := [][][]sparse.Entry[float64]{make([][]sparse.Entry[float64], p)}
		gotStats, err := sim.New(p).Run(redistRegion(global, n, chain, got, func(c *machine.Comm, m *distmat.Mat[float64], to distmat.Dist) []sparse.Entry[float64] {
			return distmat.Redistribute(c, m, to).Local
		}))
		if err != nil {
			t.Fatal(err)
		}
		wantStats, err := sim.New(p).Run(redistRegion(global, n, chain, want, redistributeRef))
		if err != nil {
			t.Fatal(err)
		}
		assertStatsEqual(t, "merge", gotStats, "canonicalize", wantStats)
		for r := range want[0] {
			if !slices.Equal(got[0][r], want[0][r]) {
				t.Fatalf("p=%d distribution %d → %d rank %d:\n got %v\nwant %v", p, int(fromSel)%len(dists), int(toSel)%len(dists), r, got[0][r], want[0][r])
			}
		}

		disjoint := make([][]sparse.Entry[float64], 1+rng.Intn(6))
		rowBlocks := rng.Intn(2) == 0
		for _, e := range global {
			r := rng.Intn(len(disjoint))
			if rowBlocks {
				r = distmat.Part(e.I, n, len(disjoint))
			}
			disjoint[r] = append(disjoint[r], e)
		}
		if got, want := distmat.MergeDisjoint(nil, disjoint), testkit.MergeRuns(disjoint, addF); !slices.Equal(got, want) {
			t.Fatalf("MergeDisjoint(%v)\n got %v\nwant %v", disjoint, got, want)
		}

		runs := make([][]sparse.Entry[float64], 1+rng.Intn(6))
		var concat []sparse.Entry[float64]
		for r := range runs {
			runs[r] = randomMatrix(rng, 6, rng.Intn(20))
			for x := range runs[r] {
				runs[r][x].V = float64(rng.Intn(5) - 2)
				if runs[r][x].V == 0 {
					runs[r][x].V = 1
				}
			}
			concat = append(concat, runs[r]...)
		}
		coo := sparse.COO[float64]{Rows: 6, Cols: 6, E: concat}
		coo.Canonicalize(addF)
		if merged := testkit.MergeRuns(runs, addF); !slices.Equal(merged, coo.E) {
			t.Fatalf("MergeRuns(%v)\n got %v\nwant %v", runs, merged, coo.E)
		}
	})
}
