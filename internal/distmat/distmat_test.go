package distmat_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/testkit"
)

var addF = algebra.Monoid[float64]{
	Identity: 0,
	Op:       func(a, b float64) float64 { return a + b },
	IsZero:   func(a float64) bool { return a == 0 },
}

func TestPartProperties(t *testing.T) {
	check := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := int(pRaw%16) + 1
		// Every item lands in exactly the part whose bounds contain it, and
		// bounds tile [0, n).
		prev := int32(0)
		for idx := 0; idx < p; idx++ {
			lo, hi := distmat.PartBounds(idx, n, p)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
			for i := lo; i < hi; i++ {
				if distmat.Part(i, n, p) != idx {
					return false
				}
			}
		}
		return prev == int32(n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartBalance(t *testing.T) {
	// Part sizes differ by at most one.
	for _, tc := range [][2]int{{100, 7}, {5, 8}, {64, 64}, {1, 3}} {
		n, p := tc[0], tc[1]
		min, max := n, 0
		for idx := 0; idx < p; idx++ {
			lo, hi := distmat.PartBounds(idx, n, p)
			sz := int(hi - lo)
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d p=%d: part sizes range [%d,%d]", n, p, min, max)
		}
	}
}

func TestDistOwnersInRange(t *testing.T) {
	dists := []distmat.Dist{
		testkit.DistRowBlock(6, 100),
		testkit.DistColBlock(6, 90),
		distmat.DistShard(6),
	}
	for x, d := range dists {
		for i := int32(0); i < 100; i++ {
			for j := int32(0); j < 90; j += 7 {
				r := d.Owner(i, j)
				if r < 0 || r >= 6 {
					t.Fatalf("distribution %d: owner(%d,%d)=%d out of range", x, i, j, r)
				}
			}
		}
	}
}

func TestFromGlobalPartitions(t *testing.T) {
	coo := sparse.NewCOO[float64](40, 40)
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 200; k++ {
		coo.Append(int32(rng.Intn(40)), int32(rng.Intn(40)), 1)
	}
	coo.Canonicalize(addF)
	total := 0
	d := distmat.DistShard(5)
	for r := 0; r < 5; r++ {
		m := distmat.FromGlobal(r, coo, d, addF)
		for _, e := range m.Local {
			if d.Owner(e.I, e.J) != r {
				t.Fatal("entry assigned to wrong owner")
			}
		}
		total += m.LocalNNZ()
	}
	if total != coo.NNZ() {
		t.Fatalf("partition lost entries: %d of %d", total, coo.NNZ())
	}
}

func TestRedistributeRoundTrip(t *testing.T) {
	coo := sparse.NewCOO[float64](30, 30)
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 150; k++ {
		coo.Append(int32(rng.Intn(30)), int32(rng.Intn(30)), float64(1+rng.Intn(5)))
	}
	coo.Canonicalize(addF)
	want := sparse.FromCOO(coo, addF)

	p := 6
	mach := sim.New(p)
	_, err := mach.Run(func(proc *machine.Proc) {
		w := proc.World()
		m := distmat.FromGlobal(proc.Rank(), coo, distmat.DistShard(p), addF)
		rows := testkit.DistRowBlock(p, 30)
		m2 := distmat.Redistribute(w, m, rows)
		for _, e := range m2.Local {
			if rows.Owner(e.I, e.J) != proc.Rank() {
				panic("redistribute placed an entry at the wrong rank")
			}
		}
		m3 := distmat.Redistribute(w, m2, testkit.DistColBlock(p, 30))
		m4 := distmat.Redistribute(w, m3, distmat.DistShard(p))
		got := testkit.Gather(w, m4, addF)
		if !testkit.Equal(want, got, func(a, b float64) bool { return a == b }) {
			panic("redistribution round trip changed the matrix")
		}
		// A move between equal distributions is no move: m itself, and no
		// superstep charged — also to a distribution built apart from m's,
		// whose tables are other storage with the same terms.
		before := proc.Cost()
		if distmat.Redistribute(w, m4, distmat.DistShard(p)) != m4 {
			panic("a redistribute to m's own distribution must return m")
		}
		if distmat.Redistribute(w, m2, testkit.DistRowBlock(p, 30)) != m2 {
			panic("a redistribute to an equal distribution built apart must return m")
		}
		if after := proc.Cost(); after != before {
			panic(fmt.Sprintf("moves between equal distributions charged %+v", after.Sub(before)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEWiseAndZipJoin(t *testing.T) {
	cooA := sparse.NewCOO[float64](20, 20)
	cooB := sparse.NewCOO[float64](20, 20)
	rng := rand.New(rand.NewSource(15))
	for k := 0; k < 80; k++ {
		cooA.Append(int32(rng.Intn(20)), int32(rng.Intn(20)), 1)
		cooB.Append(int32(rng.Intn(20)), int32(rng.Intn(20)), 2)
	}
	cooA.Canonicalize(addF)
	cooB.Canonicalize(addF)
	wantA := sparse.FromCOO(cooA, addF)
	wantB := sparse.FromCOO(cooB, addF)
	want := sparse.EWise(wantA, wantB, addF)

	p := 4
	mach := sim.New(p)
	_, err := mach.Run(func(proc *machine.Proc) {
		d := distmat.DistShard(p)
		a := distmat.FromGlobal(proc.Rank(), cooA, d, addF)
		b := distmat.FromGlobal(proc.Rank(), cooB, d, addF)
		c := distmat.EWise(a, b, addF)
		got := testkit.Gather(proc.World(), c, addF)
		if !testkit.Equal(want, got, func(x, y float64) bool { return x == y }) {
			panic("distributed ewise differs from sequential")
		}
		joined := 0
		distmat.ZipJoin(a, b, func(_, _ int32, _, _ float64) { joined++ })
		cnt := machine.AllreduceScalar(proc.World(), joined, func(x, y int) int { return x + y })
		wantJoin := 0
		testkit.ZipJoin(wantA, wantB, func(_, _ int32, _, _ float64) { wantJoin++ })
		if cnt != wantJoin {
			panic("distributed zipjoin visited the wrong number of coordinates")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// quickEntries generates sorted, duplicate-free entry slices.
type quickEntries []sparse.Entry[float64]

func (quickEntries) Generate(r *rand.Rand, _ int) reflect.Value {
	coo := sparse.NewCOO[float64](12, 12)
	for k := 0; k < r.Intn(30); k++ {
		coo.Append(int32(r.Intn(12)), int32(r.Intn(12)), float64(r.Intn(7)-3))
	}
	coo.Canonicalize(addF)
	return reflect.ValueOf(quickEntries(coo.E))
}

func TestMergeSortedProperties(t *testing.T) {
	check := func(qa, qb quickEntries) bool {
		a, b := []sparse.Entry[float64](qa), []sparse.Entry[float64](qb)
		got := distmat.MergeSorted(a, b, addF)
		// Reference: concatenate and canonicalize.
		coo := &sparse.COO[float64]{Rows: 12, Cols: 12, E: append(append([]sparse.Entry[float64]{}, a...), b...)}
		coo.Canonicalize(addF)
		if len(got) != len(coo.E) {
			return false
		}
		for i := range got {
			if got[i] != coo.E[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSortedEmptySide: with one side empty the result equals the
// other side and shares no argument's storage.
func TestMergeSortedEmptySide(t *testing.T) {
	a := []sparse.Entry[float64]{{I: 0, J: 1, V: 2}, {I: 3, J: 0, V: 1}}
	for _, sides := range [][2][]sparse.Entry[float64]{{a, nil}, {nil, a}} {
		got := distmat.MergeSorted(sides[0], sides[1], addF)
		if !slices.Equal(got, a) || sameStorage(got, a) {
			t.Fatalf("empty-side merge = %v, the other side as is or changed", got)
		}
	}
	if got := distmat.MergeSorted[float64](nil, nil, addF); len(got) != 0 {
		t.Fatalf("merge of nothing = %v", got)
	}
}

// TestMergeRunsProperties: the k-way merge equals canonicalizing the
// concatenation, for runs that share coordinates and cancel to zero, and a
// lone non-empty run comes back as is.
func TestMergeRunsProperties(t *testing.T) {
	check := func(qa, qb, qc, qd quickEntries) bool {
		runs := [][]sparse.Entry[float64]{qa, nil, qb, qc, qd}
		var all []sparse.Entry[float64]
		for _, r := range runs {
			all = append(all, r...)
		}
		coo := &sparse.COO[float64]{Rows: 12, Cols: 12, E: all}
		coo.Canonicalize(addF)
		return slices.Equal(testkit.MergeRuns(runs, addF), coo.E)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	a := []sparse.Entry[float64]{{I: 1, J: 1, V: 4}}
	if got := testkit.MergeRuns([][]sparse.Entry[float64]{nil, a, nil}, addF); len(got) != 1 || &got[0] != &a[0] {
		t.Fatalf("single run copied or changed: %v", got)
	}
	if got := testkit.MergeRuns[float64](nil, addF); got != nil {
		t.Fatalf("merge of no runs = %v", got)
	}
}

// TestMergeDisjointMatchesMergeRuns: on runs cut from one matrix — by a
// random owner per entry, and by row blocks, where every run merges as one
// segment — the disjoint merge equals the k-way reference whatever it is
// written over: nothing (fresh storage, even for a lone run), a dirty
// destination large enough to hold it (which it then fills in place), an
// undersized one or an oversized one. The result never aliases a run:
// writing over it leaves every run as it was. A coordinate in two runs
// panics, named.
func TestMergeDisjointMatchesMergeRuns(t *testing.T) {
	dirty := func(n int) []sparse.Entry[float64] {
		d := make([]sparse.Entry[float64], n)
		for x := range d {
			d[x] = sparse.Entry[float64]{I: int32(n - x), J: -1, V: -7}
		}
		return d
	}
	check := func(q quickEntries, seed int64, k, dstSel uint8, byRows bool) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]sparse.Entry[float64], 1+int(k)%7)
		for _, e := range q {
			r := rng.Intn(len(runs))
			if byRows {
				r = distmat.Part(e.I, 12, len(runs))
			}
			runs[r] = append(runs[r], e)
		}
		want := testkit.MergeRuns(runs, addF)
		var dst []sparse.Entry[float64]
		switch dstSel % 4 {
		case 1: // dirty, exactly large enough
			dst = dirty(len(want))
		case 2: // undersized
			dst = dirty(len(want) / 2)
		case 3: // oversized, its tail dirty too
			dst = dirty(2*len(want) + 3)
		}
		fits := cap(dst) >= len(want) && len(want) > 0
		before := make([][]sparse.Entry[float64], len(runs))
		for r, run := range runs {
			before[r] = slices.Clone(run)
		}
		got := distmat.MergeDisjoint(dst, runs)
		if !slices.Equal(got, want) || (fits && &got[0] != &dst[0]) {
			return false
		}
		for x := range got {
			got[x].V = -99
		}
		for r := range runs {
			if !slices.Equal(runs[r], before[r]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
	if got := distmat.MergeDisjoint(nil, [][]sparse.Entry[float64]{nil, {}}); got != nil {
		t.Fatalf("merge of empty runs = %v", got)
	}
	if got := distmat.MergeDisjoint(dirty(3), [][]sparse.Entry[float64]{nil, {}}); len(got) != 0 {
		t.Fatalf("merge of empty runs over a dirty destination = %v", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "(2, 7)") {
			t.Fatalf("shared coordinate: recovered %v, want a panic naming (2, 7)", r)
		}
	}()
	distmat.MergeDisjoint(nil, [][]sparse.Entry[float64]{{{I: 1, J: 1}, {I: 2, J: 7}}, {{I: 2, J: 3}}, {{I: 2, J: 7}}})
}

// TestAccumulatorMatchesMergeSorted folds a stream of runs through one
// Accumulator and through MergeSorted: equal after every step, never
// sharing storage with the run just folded in (callers recycle it), and —
// once both buffers have grown — without allocating.
func TestAccumulatorMatchesMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var acc distmat.Accumulator[float64]
	var got, want []sparse.Entry[float64]
	step := func() {
		run := quickEntries{}.Generate(rng, 0).Interface().(quickEntries)
		want = distmat.MergeSorted(want, run, addF)
		got = acc.Merge(got, run, addF)
		if !slices.Equal(got, want) {
			t.Fatalf("accumulated %v, want %v", got, want)
		}
		for x := range run {
			run[x].V = -99 // the caller reuses the run's storage
		}
		if !slices.Equal(got, want) {
			t.Fatal("the accumulated result shares storage with the run folded in")
		}
	}
	for x := 0; x < 40; x++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		got = acc.Merge(got, []sparse.Entry[float64]{{I: 11, J: 11, V: 1}}, addF)
	}); allocs != 0 {
		t.Fatalf("a warm Merge allocates %v times", allocs)
	}
}

// TestAccumulatorRotation interleaves the three kinds of result one
// Accumulator holds on every rank at p=4 — merges, moves between
// distributions, and results a kernel writes over Spare itself — against a
// model of the global matrix. Every result is the rank's share of the
// model; it stays intact through the next result that writes a buffer, and
// the one after that is written over its storage where it fits. A move
// between equal distributions — m's own, or one built apart that places
// every coordinate alike — returns m, writes nothing and leaves the
// rotation where it was: the next write goes over the older buffer, not
// over the matrix it returned. Every other move writes a buffer, also on a
// rank whose entries all stay.
func TestAccumulatorRotation(t *testing.T) {
	const p, n = 4, 16
	// The second row-block distribution is built apart: its table is other
	// storage with the same terms.
	dists := []distmat.Dist{distmat.DistShard(p), testkit.DistRowBlock(p, n), testkit.DistRowBlock(p, n)}
	const merge, kernel = -1, -2
	// Moves name their target; every transition runs: shard → row blocks
	// (entries move), row blocks → the row blocks built apart and a move to
	// the current distribution (both m itself), and back to the shard.
	script := []int{merge, 1, kernel, merge, 2, merge, kernel, 2, kernel, 0, merge, 0, merge, 1, 2, 1, kernel}
	_, err := sim.New(p).Run(func(proc *machine.Proc) {
		c, me := proc.World(), proc.Rank()
		rng := rand.New(rand.NewSource(47)) // one script, and one model, on every rank
		model := map[[2]int32]float64{}
		share := func(d distmat.Dist) []sparse.Entry[float64] {
			var es []sparse.Entry[float64]
			for key, v := range model {
				if d.Owner(key[0], key[1]) == me {
					es = append(es, sparse.Entry[float64]{I: key[0], J: key[1], V: v})
				}
			}
			distmat.SortEntries(es)
			return es
		}
		type result struct {
			es, snap []sparse.Entry[float64]
			ours     bool // written by the accumulator
		}
		var acc distmat.Accumulator[float64]
		cur := &distmat.Mat[float64]{Rows: n, Cols: n, Dist: dists[0]}
		var older, newer result // the last two results that wrote a buffer
		kinds := map[string]int{}
		for pass := 0; pass < 4; pass++ {
			for step, op := range script {
				var next *distmat.Mat[float64]
				wrote, need := false, 0
				switch op {
				case merge:
					run := &sparse.COO[float64]{Rows: n, Cols: n}
					for k := rng.Intn(24); k > 0; k-- {
						run.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), float64(rng.Intn(5)-2))
					}
					run.Canonicalize(addF)
					for _, e := range run.E {
						key := [2]int32{e.I, e.J}
						if model[key] += e.V; model[key] == 0 {
							delete(model, key)
						}
					}
					mine := distmat.FromGlobal(me, run, cur.Dist, addF).Local
					wrote, need = len(mine) > 0, len(cur.Local)+len(mine)
					next = &distmat.Mat[float64]{Rows: n, Cols: n, Dist: cur.Dist, Local: acc.Merge(cur.Local, mine, addF)}
					kinds["merge"]++
				case kernel:
					out := acc.Spare()
					for _, e := range cur.Local {
						out = append(out, sparse.Entry[float64]{I: e.I, J: e.J, V: 2 * e.V})
					}
					for key := range model {
						model[key] *= 2
					}
					wrote, need = true, len(cur.Local)
					next = &distmat.Mat[float64]{Rows: n, Cols: n, Dist: cur.Dist, Local: acc.Rotate(out)}
					kinds["kernel"]++
				default:
					to := dists[op]
					next = acc.Move(c, cur, to)
					if to.Equal(cur.Dist) {
						if next != cur {
							panic(fmt.Sprintf("rank %d step %d: a move between equal distributions is not m itself", me, step))
						}
						kinds["equal"]++
					} else {
						wrote, need = true, len(share(to))
						kinds["moved"]++
					}
				}
				if want := share(next.Dist); !slices.Equal(next.Local, want) {
					panic(fmt.Sprintf("rank %d pass %d step %d: got %v, want %v", me, pass, step, next.Local, want))
				}
				if wrote {
					if older.ours && cap(older.es) >= need && !sameStorage(next.Local, older.es) {
						panic(fmt.Sprintf("rank %d pass %d step %d: the result was not written over the one two writes before", me, pass, step))
					}
					older, newer = newer, result{next.Local, slices.Clone(next.Local), true}
				}
				for _, r := range []result{older, newer} {
					if !slices.Equal(r.es, r.snap) {
						panic(fmt.Sprintf("rank %d pass %d step %d: a result was written over before the second write after it", me, pass, step))
					}
				}
				cur = next
			}
		}
		for _, kind := range []string{"merge", "kernel", "moved", "equal"} {
			if kinds[kind] == 0 {
				panic(fmt.Sprintf("rank %d: the script ran no %s step", me, kind))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMoveAllocBudget gates the bytes of a warm redistribution through an
// Accumulator (Move): on the sim at p=4, with every rank's send storage
// and both of the accumulator's buffers grown by earlier moves, moving
// about 2k entries back and forth between a hashed and a row-blocked
// distribution allocates what moving about 32k does, and nothing per
// entry. The move itself allocates nothing: the all-to-all's header, peer
// views and receive live in the rank's store and its own frame, and the
// result's header in the accumulator. What the test reads is barrier
// waiters that park when a peer is slow to arrive, each on a channel it
// makes: 0 to 90 bytes a move in the quietest of ten tries on a 2-vCPU
// box, up to 165 under the race detector, which slows the merges. The
// budget, 256 bytes a move, is below what a fresh header per rank and move
// alone would cost (320). A move
// allocated 1.60 to 1.71 KB while the collective built its payload's
// closures, boxed the parts and made fresh peer views, and the result's
// header was fresh, and a move that merged into fresh storage on every
// call, as every redistribution did before it had a kept buffer, allocates
// 16 bytes more per entry it receives. The collector is held off, so the
// test does not depend on when a cycle lands, and the bytes are read by
// testkit.AllocMeter, whose waiters do not park.
func TestMoveAllocBudget(t *testing.T) {
	const p, maxBytes = 4, 256
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, entries := range []int{1 << 11, 1 << 15} {
		n := int(math.Sqrt(float64(entries))) * 4
		coo := sparse.NewCOO[float64](n, n)
		rng := rand.New(rand.NewSource(int64(entries)))
		for coo.NNZ() < entries {
			coo.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
		}
		coo.Canonicalize(addF)
		dists := [2]distmat.Dist{distmat.DistShard(p), testkit.DistRowBlock(p, n)}
		const moves = 8
		meter := testkit.NewAllocMeter(p)
		var bytes uint64
		_, err := sim.New(p).Run(func(proc *machine.Proc) {
			c := proc.World()
			var acc distmat.Accumulator[float64]
			m := distmat.FromGlobal(proc.Rank(), coo, dists[0], addF)
			for k := 1; k <= 4; k++ {
				m = acc.Move(c, m, dists[k%2])
			}
			b := meter.Least(proc, 10, func() {
				for k := 1; k <= moves; k++ {
					m = acc.Move(c, m, dists[k%2])
				}
			})
			if proc.Rank() == 0 {
				bytes = b
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		perMove := bytes / moves
		t.Logf("a warm move of %d entries at p=%d allocates %d bytes", coo.NNZ(), p, perMove)
		if perMove > maxBytes {
			t.Errorf("a warm move of %d entries at p=%d allocates %d bytes, budget %d", coo.NNZ(), p, perMove, maxBytes)
		}
	}
}

// TestFromGlobalMatchesDefinition: on shuffled COOs with duplicates, zero
// folds and a hub row of 1,000 to 4,000 entries, each rank's piece under a
// hashed and a row-blocked distribution is the old definition's — the whole
// matrix copied, canonicalized, then filtered to the rank — and the input is
// left as it was.
func TestFromGlobalMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(3000)
		coo := sparse.NewCOO[float64](rows, cols)
		val := func() float64 { return float64(rng.Intn(5) - 2) }
		for k := 0; k < 4*rows; k++ {
			i, j := int32(rng.Intn(rows)), int32(rng.Intn(cols))
			coo.Append(i, j, val())
			coo.Append(i, j, val())
		}
		hub := int32(rng.Intn(rows))
		for k := 1000 + rng.Intn(3000); k > 0; k-- {
			coo.Append(hub, int32(rng.Intn(cols)), val())
		}
		rng.Shuffle(len(coo.E), func(x, y int) { coo.E[x], coo.E[y] = coo.E[y], coo.E[x] })
		before := slices.Clone(coo.E)
		// The definition: clone, sort by (row, col), fold each coordinate's
		// run (small integers: exact in any order), drop zeros, filter.
		es := slices.Clone(coo.E)
		distmat.SortEntries(es)
		var canonical []sparse.Entry[float64]
		for x := 0; x < len(es); {
			cur, y := es[x], x+1
			for ; y < len(es) && es[y].I == cur.I && es[y].J == cur.J; y++ {
				cur.V += es[y].V
			}
			if cur.V != 0 {
				canonical = append(canonical, cur)
			}
			x = y
		}
		for _, p := range []int{1, 3, 4} {
			for x, d := range []distmat.Dist{distmat.DistShard(p), testkit.DistRowBlock(p, rows)} {
				total := 0
				for r := 0; r < p; r++ {
					var want []sparse.Entry[float64]
					for _, e := range canonical {
						if d.Owner(e.I, e.J) == r {
							want = append(want, e)
						}
					}
					got := distmat.FromGlobal(r, coo, d, addF)
					if !slices.Equal(got.Local, want) {
						t.Fatalf("trial %d p=%d distribution %d rank %d: %d entries, the definition gives %d", trial, p, x, r, len(got.Local), len(want))
					}
					total += len(want)
				}
				if total != len(canonical) || len(canonical) == len(before) {
					t.Fatalf("trial %d p=%d distribution %d: %d of %d canonical entries placed, %d input entries: the case folds nothing", trial, p, x, total, len(canonical), len(before))
				}
			}
		}
		if !slices.Equal(coo.E, before) {
			t.Fatalf("trial %d: distmat.FromGlobal changed its input", trial)
		}
	}
}

// sameStorage reports whether a and b start at one address: the same
// storage, however long each view of it is.
func sameStorage[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}
