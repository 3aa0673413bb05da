package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/sparse"
)

// randBlock draws a sorted duplicate-free block on rows [i0, i0+rows) and
// columns [j0, j0+cols), each coordinate present with probability 1/den.
func randBlock(r *rand.Rand, i0, j0, rows, cols int32, den int) []sparse.Entry[int] {
	var out []sparse.Entry[int]
	for i := i0; i < i0+rows; i++ {
		for j := j0; j < j0+cols; j++ {
			if r.Intn(den) == 0 {
				out = append(out, sparse.Entry[int]{I: i, J: j, V: len(out)})
			}
		}
	}
	return out
}

// checkIndexed requires x to find every entry of es at its position and
// nothing anywhere else on the grid [0, n)² — off the box and inside it.
func checkIndexed(t *testing.T, what string, x *blockIndex, es []sparse.Entry[int], n int32) {
	t.Helper()
	want := map[[2]int32]int{}
	for k, e := range es {
		want[[2]int32{e.I, e.J}] = k
	}
	for i := int32(-1); i <= n; i++ {
		for j := int32(-1); j <= n; j++ {
			k, ok := want[[2]int32{i, j}]
			if !ok {
				k = -1
			}
			if got := x.at(i, j); got != k {
				t.Fatalf("%s: at(%d, %d) = %d, want %d", what, i, j, got, k)
			}
		}
	}
}

func TestBlockIndex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 24
	x := new(blockIndex)
	checkIndexed(t, "never built", x, nil, n)
	for trial := 0; trial < 50; trial++ {
		i0, j0 := r.Int31n(n/2), r.Int31n(n/2)
		big := randBlock(r, i0, j0, 1+r.Int31n(n/2), 1+r.Int31n(n/2), 1+r.Intn(3))
		indexBlock(x, big)
		checkIndexed(t, "block", x, big, n)
		// A rebuild on a smaller block — here a strict sub-box — forgets
		// every entry of the larger one, and reuses its storage.
		small := randBlock(r, i0+1, j0+1, 2, 3, 2)
		indexBlock(x, small)
		checkIndexed(t, "rebuilt smaller", x, small, n)
		indexBlock[int](x, nil)
		checkIndexed(t, "rebuilt empty", x, nil, n)
	}
	// Rebuilding storage that fits allocates nothing.
	block := randBlock(r, 3, 4, 8, 9, 2)
	indexBlock(x, block)
	if a := testing.AllocsPerRun(20, func() { indexBlock(x, block[len(block)/2:]) }); a != 0 {
		t.Fatalf("rebuild allocates %v times, want 0", a)
	}
}

// The backward round before the position table, kept as the oracle of the
// indexed one: screenCentSided and foldInto merge-walked T and Z with seek,
// and collectFrontierSided scanned the whole of Z.

func seekScreenCent[C centSided[C], M multSided[M]](p []sparse.Entry[C], t []sparse.Entry[M]) []sparse.Entry[C] {
	out := p[:0]
	y, hit := 0, false
	for _, e := range p {
		if y, hit = seek(t, y, e); !hit {
			continue
		}
		live := false
		for s := 0; s < e.V.Sides(); s++ {
			//lint:allow floateq the oracle applies the rule it replaces
			if t[y].V.Side(s).W == e.V.Side(s).W {
				live = true
			} else {
				e.V = e.V.WithSide(s, algebra.CentPathZero())
			}
		}
		if live {
			out = append(out, e)
		}
	}
	return out
}

func seekFoldInto[C any](z, p []sparse.Entry[C], op func(C, C) C) {
	y, hit := 0, false
	for _, e := range p {
		if y, hit = seek(z, y, e); !hit {
			panic("screened product off Z's pattern")
		}
		z[y].V = op(z[y].V, e.V)
	}
}

func scanCollect[C centSided[C], M multSided[M]](z []sparse.Entry[C], t []sparse.Entry[M], zero C) []sparse.Entry[C] {
	return collectFrontierSided(nil, z, t, everyPosition(z), zero)
}

// backwardCase is one random backward round: T's block (one side dead now
// and then), the child counts Z is built from, and a round's product, on
// and off T's pattern and on and off the block's box.
type backwardCase[M, C any] struct {
	tm        []sparse.Entry[M]
	counts, p []sparse.Entry[C]
}

func drawBackward[M multSided[M], C centSided[C]](r *rand.Rand, mzero M, czero C) backwardCase[M, C] {
	sides := mzero.Sides()
	// Integer weights from a small range, so that a product matching T's
	// weight — the case the screen keeps — is common.
	weight := func() float64 { return float64(1 + r.Intn(3)) }
	var bc backwardCase[M, C]
	for _, e := range randBlock(r, 2, 3, 4, 6, 2) {
		v, live := mzero, false
		for s := 0; s < sides; s++ {
			if sides == 1 || r.Intn(4) > 0 {
				v, live = v.WithSide(s, algebra.MultPath{W: weight(), M: float64(1 + r.Intn(3))}), true
			}
		}
		if !live {
			continue // every side dead: T holds no such entry
		}
		bc.tm = append(bc.tm, sparse.Entry[M]{I: e.I, J: e.J, V: v})
	}
	cent := func(i, j int32, c int64) C {
		v := czero
		for s := 0; s < sides; s++ {
			if r.Intn(5) == 0 {
				continue
			}
			w := weight()
			if k := slices.IndexFunc(bc.tm, func(e sparse.Entry[M]) bool { return e.I == i && e.J == j }); k >= 0 && r.Intn(3) > 0 {
				w = bc.tm[k].V.Side(s).W
			}
			v = v.WithSide(s, algebra.CentPath{W: w, P: float64(r.Intn(4)), C: c})
		}
		return v
	}
	for _, e := range randBlock(r, 0, 0, 8, 11, 2) {
		bc.counts = append(bc.counts, sparse.Entry[C]{I: e.I, J: e.J, V: cent(e.I, e.J, int64(r.Intn(3)))})
		bc.p = append(bc.p, sparse.Entry[C]{I: e.I, J: e.J, V: cent(e.I, e.J, -1-int64(r.Intn(2)))})
	}
	return bc
}

// checkIndexedBackward runs the indexed backward sweep's first two rounds —
// Z from the screened counts and the leaves, then one screened product
// folded by position — beside the seek oracle, and requires the same
// surviving components, the same Z bits and the same frontiers. It returns
// the length of the second frontier.
func checkIndexedBackward[M multSided[M], C interface {
	centSided[C]
	comparable
}](t *testing.T, seed int64, mzero M, czero C, op func(C, C) C) int {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	bc := drawBackward(r, mzero, czero)
	x := indexed(bc.tm)

	counts, _ := screenCentSided(slices.Clone(bc.counts), bc.tm, x, nil)
	wantCounts := seekScreenCent(slices.Clone(bc.counts), bc.tm)
	if !slices.Equal(counts, wantCounts) {
		t.Fatalf("seed %d: counts screen kept\n  %v\nwant\n  %v", seed, counts, wantCounts)
	}
	z, leaves := buildZSided(bc.tm, counts, 0, nil)
	zRef, _ := buildZSided(bc.tm, wantCounts, 0, nil)
	frontier := collectFrontierSided(nil, z, bc.tm, leaves, czero)
	if want := scanCollect(zRef, bc.tm, czero); !slices.Equal(frontier, want) {
		t.Fatalf("seed %d: first frontier from the leaves\n  %v\nwant\n  %v", seed, frontier, want)
	}

	kept, where := screenCentSided(slices.Clone(bc.p), bc.tm, x, nil)
	wantKept := seekScreenCent(slices.Clone(bc.p), bc.tm)
	if !slices.Equal(kept, wantKept) {
		t.Fatalf("seed %d: round screen kept\n  %v\nwant\n  %v", seed, kept, wantKept)
	}
	foldInto(z, kept, where, op)
	seekFoldInto(zRef, wantKept, op)
	if !slices.Equal(z, zRef) {
		t.Fatalf("seed %d: folded Z\n  %v\nwant\n  %v", seed, z, zRef)
	}
	frontier = collectFrontierSided(nil, z, bc.tm, where, czero)
	if want := scanCollect(zRef, bc.tm, czero); !slices.Equal(frontier, want) {
		t.Fatalf("seed %d: next frontier from the folded positions\n  %v\nwant\n  %v", seed, frontier, want)
	}
	if !slices.Equal(z, zRef) {
		t.Fatalf("seed %d: Z after collection\n  %v\nwant\n  %v", seed, z, zRef)
	}
	return len(frontier)
}

func TestIndexedBackwardMatchesSeek(t *testing.T) {
	emitted := 0
	for seed := int64(1); seed <= 300; seed++ {
		emitted += checkIndexedBackward(t, seed, algebra.MultPathZero(), algebra.CentPathZero(), algebra.CentPathTimes)
		emitted += checkIndexedBackward(t, seed, algebra.MultPathPairZero(), algebra.CentPathPairZero(), algebra.CentPathPairMonoid().Op)
	}
	// The inputs must reach the case under test: counters the fold brings
	// to zero, collected from the positions it folded into.
	if emitted == 0 {
		t.Fatal("no second-round frontier entry in 600 cases")
	}
	t.Logf("%d second-round frontier entries", emitted)
}
