package distmat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
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
			lo, hi := PartBounds(idx, n, p)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
			for i := lo; i < hi; i++ {
				if Part(i, n, p) != idx {
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
			lo, hi := PartBounds(idx, n, p)
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
	dists := []Dist{
		DistRowBlock(6, 100),
		DistColBlock(6, 90),
		DistShard(6),
	}
	for _, d := range dists {
		for i := int32(0); i < 100; i++ {
			for j := int32(0); j < 90; j += 7 {
				r := d.Owner(i, j)
				if r < 0 || r >= 6 {
					t.Fatalf("%s: owner(%d,%d)=%d out of range", d.Key, i, j, r)
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
	d := DistShard(5)
	for r := 0; r < 5; r++ {
		m := FromGlobal(r, coo, d, addF)
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
		m := FromGlobal(proc.Rank(), coo, DistShard(p), addF)
		m2 := Redistribute(w, m, DistRowBlock(p, 30), addF)
		for _, e := range m2.Local {
			if DistRowBlock(p, 30).Owner(e.I, e.J) != proc.Rank() {
				panic("redistribute placed an entry at the wrong rank")
			}
		}
		m3 := Redistribute(w, m2, DistColBlock(p, 30), addF)
		m4 := Redistribute(w, m3, DistShard(p), addF)
		got := Gather(w, m4, addF)
		if !sparse.Equal(want, got, func(a, b float64) bool { return a == b }) {
			panic("redistribution round trip changed the matrix")
		}
		// No-op fast path.
		m5 := Redistribute(w, m4, DistShard(p), addF)
		if m5 != m4 {
			panic("same-key redistribute must be a no-op")
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
		d := DistShard(p)
		a := FromGlobal(proc.Rank(), cooA, d, addF)
		b := FromGlobal(proc.Rank(), cooB, d, addF)
		c := EWise(a, b, addF)
		got := Gather(proc.World(), c, addF)
		if !sparse.Equal(want, got, func(x, y float64) bool { return x == y }) {
			panic("distributed ewise differs from sequential")
		}
		joined := 0
		ZipJoin(a, b, func(_, _ int32, _, _ float64) { joined++ })
		cnt := machine.AllreduceScalar(proc.World(), joined, func(x, y int) int { return x + y })
		wantJoin := 0
		sparse.ZipJoin(wantA, wantB, func(_, _ int32, _, _ float64) { wantJoin++ })
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
		got := MergeSorted(a, b, addF)
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

// TestMergeSortedEmptySide: with one side empty the other comes back as
// is — same backing array, no copy.
func TestMergeSortedEmptySide(t *testing.T) {
	a := []sparse.Entry[float64]{{I: 0, J: 1, V: 2}, {I: 3, J: 0, V: 1}}
	for _, got := range [][]sparse.Entry[float64]{MergeSorted(a, nil, addF), MergeSorted(nil, a, addF)} {
		if len(got) != len(a) || &got[0] != &a[0] {
			t.Fatalf("empty-side merge copied or changed its input: %v", got)
		}
	}
	if got := MergeSorted[float64](nil, nil, addF); len(got) != 0 {
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
		return slices.Equal(MergeRuns(runs, addF), coo.E)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	a := []sparse.Entry[float64]{{I: 1, J: 1, V: 4}}
	if got := MergeRuns([][]sparse.Entry[float64]{nil, a, nil}, addF); len(got) != 1 || &got[0] != &a[0] {
		t.Fatalf("single run copied or changed: %v", got)
	}
	if got := MergeRuns[float64](nil, addF); got != nil {
		t.Fatalf("merge of no runs = %v", got)
	}
}

// TestAccumulatorMatchesMergeSorted folds a stream of runs through one
// Accumulator and through MergeSorted: equal after every step, never
// sharing storage with the run just folded in (callers recycle it), and —
// once both buffers have grown — without allocating.
func TestAccumulatorMatchesMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var acc Accumulator[float64]
	var got, want []sparse.Entry[float64]
	step := func() {
		run := quickEntries{}.Generate(rng, 0).Interface().(quickEntries)
		want = slices.Clone(MergeSorted(want, run, addF)) // MergeSorted may return run itself
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

func TestMap(t *testing.T) {
	coo := sparse.NewCOO[float64](10, 10)
	for i := int32(0); i < 10; i++ {
		coo.Append(i, i, float64(i))
	}
	m := FromGlobal(0, coo, Dist{Key: "all0", P: 1, Owner: func(_, _ int32) int { return 0 }}, addF)
	if m.LocalNNZ() != 9 { // i=0 dropped by IsZero during canonicalize
		t.Fatalf("FromGlobal kept %d", m.LocalNNZ())
	}
	mm := Map(m, addF, func(_, _ int32, v float64) float64 { return v - 5 })
	for _, e := range mm.Local {
		if e.V == 0 {
			t.Fatal("map must drop zeros")
		}
	}
}
