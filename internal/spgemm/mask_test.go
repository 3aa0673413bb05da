package spgemm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

// maskRun is what one rank-parallel product left behind: each rank's C
// block in the order the rank produced it, the region's critical-path cost,
// the products evaluated and those screened out per the session counters,
// how often the verdict dropped a product, and, per rank, the coordinates
// at which it kept one.
type maskRun[V any] struct {
	parts                       [][]sparse.Entry[V]
	cost                        machine.Cost
	products, screened, dropped int64
	kept                        []map[uint64]bool
}

// Kernels the mask test runs one product through.
const (
	kernelPlain    = iota // Multiply without a screen or an accumulator: the sorting kernel, the oracle
	kernelColumns         // Multiply without a screen, through a caller's accumulator: the column kernel
	kernelKeepAll         // Multiply under a screen that keeps everything, through a fresh accumulator: the column kernel
	kernelScreened        // Multiply under the losers' screen, through a fresh accumulator: the column kernel
)

// verdicts is what the losers' screen decided on one rank: how many
// products it dropped and the coordinates where it kept one. The rank's
// workers ask at once.
type verdicts struct {
	dropped atomic.Int64
	mu      sync.Mutex
	kept    map[uint64]bool
}

// losersScreen is the screen the test multiplies under, over one rank's
// block of c.t in the product's C distribution, masking the product by T as
// MFBr's screen does: it forms the product with c.f, keeps it where the
// block holds its coordinate and the product does not lose there, and
// tallies into vd.
func losersScreen[V, W any](c screenCase[V, W], block []sparse.Entry[V], vd *verdicts) Screen[V, W] {
	return func(i, j int32, a V, b W) (V, bool) {
		v := c.f(a, b)
		key := distmat.CoordKey(i, j)
		y := sort.Search(len(block), func(y int) bool { return distmat.CoordKey(block[y].I, block[y].J) >= key })
		if y == len(block) || block[y].I != i || block[y].J != j || c.loses(block[y].V, v) {
			vd.dropped.Add(1)
			return v, false
		}
		vd.mu.Lock()
		vd.kept[key] = true
		vd.mu.Unlock()
		return v, true
	}
}

// rankOperands places c's frontier and adjacency on one rank of a region,
// and returns them with the rank's block of c.t in plan's C distribution.
func rankOperands[V, W any](proc *machine.Proc, s *Session, c screenCase[V, W], plan Plan) (*distmat.Mat[V], *Stationary[W], []sparse.Entry[V]) {
	p := plan.Procs()
	a := distmat.FromGlobal(proc.Rank(), c.frontier, distmat.DistShard(p), c.add)
	b := NewStationary(distmat.FromGlobal(proc.Rank(), c.adj, distmat.DistShard(p), c.edge))
	_, _, dc := b.Dists(s, plan, a.Rows)
	return a, b, distmat.FromGlobal(proc.Rank(), c.t.ToCOO(), dc, c.add).Local
}

// maskedProduct multiplies c's frontier by its adjacency under plan with the
// given kernel, through an accumulator of the call's own where it has one. A
// plan of several stages drains the accumulator once per row of every
// stage.
func maskedProduct[V, W any](t *testing.T, c screenCase[V, W], plan Plan, workers, kernel int) maskRun[V] {
	t.Helper()
	p := plan.Procs()
	out := maskRun[V]{parts: make([][]sparse.Entry[V], p), kept: make([]map[uint64]bool, p)}
	tallies := make([][3]int64, p)
	stats, err := sim.New(p).Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		s.Workers = workers
		a, b, block := rankOperands(proc, s, c, plan)
		vd := &verdicts{kept: map[uint64]bool{}}
		var screen Screen[V, W]
		var acc *Accumulator[V]
		if kernel != kernelPlain {
			acc = new(Accumulator[V])
		}
		switch kernel {
		case kernelKeepAll:
			screen = func(_, _ int32, a V, b W) (V, bool) { return c.f(a, b), true }
		case kernelScreened:
			screen = losersScreen(c, block, vd)
		}
		prod := Multiply(s, plan, a, b, c.f, c.add, screen, acc)
		out.parts[proc.Rank()] = prod.Local
		out.kept[proc.Rank()] = vd.kept
		tallies[proc.Rank()] = [3]int64{s.Products.Load(), s.Screened.Load(), vd.dropped.Load()}
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", c.name, plan, err)
	}
	for _, tl := range tallies {
		out.products += tl[0]
		out.screened += tl[1]
		out.dropped += tl[2]
	}
	out.cost = stats.MaxCost
	return out
}

// reusedProducts multiplies each of cs in turn, in one region under plan,
// under the losers' screen or none, and through one accumulator per rank
// that the caller keeps across the products, as a sweep keeps one across
// its rounds. It returns each product's blocks by rank as they stand once
// the next product has been formed — the latest a caller may still read
// them, since the product after that is written over them.
func reusedProducts[V, W any](t *testing.T, cs []screenCase[V, W], plan Plan, workers int, screened bool) [][][]sparse.Entry[V] {
	t.Helper()
	p := plan.Procs()
	out := make([][][]sparse.Entry[V], len(cs))
	for x := range out {
		out[x] = make([][]sparse.Entry[V], p)
	}
	_, err := sim.New(p).Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		s.Workers = workers
		var acc Accumulator[V]
		var last []sparse.Entry[V]
		for x, c := range cs {
			a, b, block := rankOperands(proc, s, c, plan)
			var screen Screen[V, W]
			if screened {
				screen = losersScreen(c, block, &verdicts{kept: map[uint64]bool{}})
			}
			prod := Multiply(s, plan, a, b, c.f, c.add, screen, &acc).Local
			if x > 0 {
				out[x-1][proc.Rank()] = slices.Clone(last)
			}
			last = prod
		}
		out[len(cs)-1][proc.Rank()] = slices.Clone(last)
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", cs[0].name, plan, err)
	}
	return out
}

// keptOf is r's blocks with every entry the verdicts kept no product at
// removed, and each side of a kept one that lost against c.t zeroed by the
// case's post-screen. A side on which every kept product loses folds over
// fewer products than the unscreened kernel folds there, so the two can
// differ on it; the sweeps zero it either way.
func keptOf[V, W any](c screenCase[V, W], r maskRun[V], kept []map[uint64]bool) [][]sparse.Entry[V] {
	out := make([][]sparse.Entry[V], len(r.parts))
	for rank, part := range r.parts {
		for _, e := range part {
			if kept[rank][distmat.CoordKey(e.I, e.J)] {
				tv, ok := c.t.Get(e.I, e.J)
				e.V, _ = c.post(tv, !ok, e.V)
				out[rank] = append(out[rank], e)
			}
		}
	}
	return out
}

// entryBits is the little-endian image of entry lists: equal images are the
// same entries in the same order with the same bits.
func entryBits[V any](t *testing.T, parts ...[]sparse.Entry[V]) []byte {
	var buf bytes.Buffer
	for _, part := range parts {
		if err := binary.Write(&buf, binary.LittleEndian, part); err != nil {
			t.Error(err)
		}
		buf.WriteByte('|')
	}
	return buf.Bytes()
}

// checkKernels is the contract of the column kernel for one case under
// every candidate plan of p processors — partial-C ones (VarAC, VarBC, a
// RoleC fiber) among them — with the sorting kernel, a Multiply with
// neither a screen nor an accumulator, as the oracle. Per rank, byte for
// byte and in order: without a screen, and under a screen that keeps
// everything, the column kernel emits the oracle's entries; under the
// losers' screen it emits the oracle's entries at the coordinates where it
// kept a product (sides every kept product lost on zeroed in both); and
// through an accumulator kept across products — the case's product, the
// same again, then other's, whose C block is another width — each product,
// read once the next one is formed, is what it is through a fresh one,
// screened or not. Each dropped product
// counts as screened out; where C is partial the screen is ignored. Neither
// the accumulator nor a screen moves the products evaluated or the modeled
// cost.
func checkKernels[V, W any](t *testing.T, p int, c, other screenCase[V, W]) {
	for _, plan := range candidatesFor(p, AnyPlan) {
		stationaryC := plan.YZ == VarAB && !(plan.P1 > 1 && plan.X == RoleC)
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s %s workers=%d", c.name, plan, workers)
			plain := maskedProduct(t, c, plan, workers, kernelPlain)
			columns := maskedProduct(t, c, plan, workers, kernelColumns)
			keepAll := maskedProduct(t, c, plan, workers, kernelKeepAll)
			screened := maskedProduct(t, c, plan, workers, kernelScreened)
			otherPlain := maskedProduct(t, other, plan, workers, kernelPlain)
			otherScreened := maskedProduct(t, other, plan, workers, kernelScreened)
			if plain.products == 0 {
				t.Fatalf("%s: empty product, the case tests nothing", name)
			}
			if !bytes.Equal(entryBits(t, columns.parts...), entryBits(t, plain.parts...)) {
				t.Errorf("%s: without a screen the column kernel's output differs from the sorting kernel's", name)
			}
			if !bytes.Equal(entryBits(t, keepAll.parts...), entryBits(t, plain.parts...)) {
				t.Errorf("%s: under a screen that keeps everything the kernel's output differs from the sorting kernel's", name)
			}
			if stationaryC {
				if !bytes.Equal(entryBits(t, keptOf(c, screened, screened.kept)...), entryBits(t, keptOf(c, plain, screened.kept)...)) {
					t.Errorf("%s: the screened kernel's output differs from the sorting kernel's where it kept a product", name)
				}
			} else if !bytes.Equal(entryBits(t, screened.parts...), entryBits(t, plain.parts...)) {
				t.Errorf("%s: a partial-C plan did not ignore the screen", name)
			}
			for _, kept := range []struct {
				screened   bool
				this, that maskRun[V]
			}{{false, plain, otherPlain}, {true, screened, otherScreened}} {
				for x, got := range reusedProducts(t, []screenCase[V, W]{c, c, other}, plan, workers, kept.screened) {
					want := kept.this
					if x == 2 {
						want = kept.that
					}
					if !bytes.Equal(entryBits(t, got...), entryBits(t, want.parts...)) {
						t.Errorf("%s: product %d of 3 through a kept accumulator (screened: %t) differs from the product through a fresh one", name, x+1, kept.screened)
					}
				}
			}
			for _, r := range []maskRun[V]{columns, keepAll, screened} {
				if r.cost != plain.cost || r.products != plain.products {
					t.Errorf("%s: the screen moved the modeled work: cost %v products %d, unscreened %v %d", name, r.cost, r.products, plain.cost, plain.products)
				}
			}
			if columns.screened != 0 || keepAll.screened != 0 {
				t.Errorf("%s: no screen, or one that keeps everything, screened out %d, %d products", name, columns.screened, keepAll.screened)
			}
			if screened.screened != screened.dropped {
				t.Errorf("%s: %d products screened out, the verdicts dropped %d", name, screened.screened, screened.dropped)
			}
			if stationaryC == (screened.screened == 0) {
				t.Errorf("%s: %d of %d products screened out; stationary C: %t", name, screened.screened, screened.products, stationaryC)
			}
		}
	}
}

// TestMaskIsTheSort: the forward and backward products of graphCases on an
// RMAT graph and a weighted mesh at p ∈ {4, 6},
// with one and three workers per rank, through the column kernel — without
// a screen, under a screen that keeps everything, and under the losers'
// screen, which masks each product by T — against the sorting one. Each graph's products are
// the differently sized ones that follow the other's through a kept
// accumulator.
func TestMaskIsTheSort(t *testing.T) {
	mesh := graph.Grid2D(6, 6, 5, 2)
	mesh.Name = "mesh-6x6"
	rmat := graph.RMAT(graph.DefaultRMAT(6, 6, 4))
	rmat.Name = "rmat-s6"
	graphs := []*graph.Graph{rmat, mesh}
	cases := []graphCases{screenCases(rmat, 8), screenCases(mesh, 8)}
	for x, g := range graphs {
		cs, other := cases[x], cases[1-x]
		for _, p := range []int{4, 6} {
			t.Run(fmt.Sprintf("%s/p%d", g.Name, p), func(t *testing.T) {
				checkKernels(t, p, cs.fwd, other.fwd)
				checkKernels(t, p, cs.back, other.back)
			})
		}
	}
}
