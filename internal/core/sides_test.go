package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/sparse"
)

// Side independence of the four per-entry rules: a rule applied to the pair
// lift of two scalar entry lists equals, side by side, the rule applied to
// each scalar list alone — one side's survival never resurrects the other,
// whatever the other side holds at the coordinate (a live component, a dead
// one, or nothing). It is what makes the scalar sweep the pair sweep at one
// side, and what lets the screening predicate change in one place.

const sideRows, sideCols = 3, 5

// randPattern draws a sorted coordinate subset of the sideRows×sideCols grid.
func randPattern(r *rand.Rand) [][2]int32 {
	var out [][2]int32
	for i := int32(0); i < sideRows; i++ {
		for j := int32(0); j < sideCols; j++ {
			if r.Intn(2) == 0 {
				out = append(out, [2]int32{i, j})
			}
		}
	}
	return out
}

func entriesOn[E any](at [][2]int32, val func() E) []sparse.Entry[E] {
	out := make([]sparse.Entry[E], len(at))
	for k, c := range at {
		out[k] = sparse.Entry[E]{I: c[0], J: c[1], V: val()}
	}
	return out
}

// liftSides merges two sorted scalar lists into the pair list holding list
// s on side s; a coordinate absent from one list gets that side's zero.
func liftSides[T algebra.Sided[T, E], E any](zero T, lists [2][]sparse.Entry[E]) []sparse.Entry[T] {
	var out []sparse.Entry[T]
	x, y := 0, 0
	a, b := lists[0], lists[1]
	for x < len(a) || y < len(b) {
		switch {
		case y >= len(b) || (x < len(a) && entryLess(a[x], b[y])):
			out = append(out, sparse.Entry[T]{I: a[x].I, J: a[x].J, V: zero.WithSide(0, a[x].V)})
			x++
		case x >= len(a) || entryLess(b[y], a[x]):
			out = append(out, sparse.Entry[T]{I: b[y].I, J: b[y].J, V: zero.WithSide(1, b[y].V)})
			y++
		default:
			out = append(out, sparse.Entry[T]{I: a[x].I, J: a[x].J, V: zero.WithSide(0, a[x].V).WithSide(1, b[y].V)})
			x++
			y++
		}
	}
	return out
}

func entryLess[T, U any](a sparse.Entry[T], b sparse.Entry[U]) bool {
	return a.I < b.I || (a.I == b.I && a.J < b.J)
}

// sideOf projects a list onto side s, dropping the components dead there.
func sideOf[T algebra.Sided[T, E], E any](list []sparse.Entry[T], s int, isZero func(E) bool) []sparse.Entry[E] {
	var out []sparse.Entry[E]
	for _, e := range list {
		if c := e.V.Side(s); !isZero(c) {
			out = append(out, sparse.Entry[E]{I: e.I, J: e.J, V: c})
		}
	}
	return out
}

// indexed returns a fresh position table over es.
func indexed[T any](es []sparse.Entry[T]) *blockIndex {
	x := new(blockIndex)
	indexBlock(x, es)
	return x
}

// everyPosition lists every position of es: collectFrontierSided over the
// whole of a Z.
func everyPosition[T any](es []sparse.Entry[T]) []int32 {
	at := make([]int32, len(es))
	for k := range at {
		at[k] = int32(k)
	}
	return at
}

// first drops a rule's second result.
func first[A, B any](a A, _ B) A { return a }

func sameOnSide[E comparable](t *testing.T, seed int64, s int, rule string, pair, scalar []sparse.Entry[E]) {
	t.Helper()
	if !slices.Equal(pair, scalar) {
		t.Fatalf("seed %d side %d: %s of the pair lift\n  %v\ndiffers from the scalar rule\n  %v", seed, s, rule, pair, scalar)
	}
}

func checkSideIndependence(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// Integer weights from a small range, so weight ties — the case the
	// screens exist for — are common. Multiplicity 0 on a finite weight is a
	// dead multpath that still occupies a coordinate.
	mult := func() algebra.MultPath {
		return algebra.MultPath{W: float64(1 + r.Intn(3)), M: float64(r.Intn(4))}
	}
	cent := func() algebra.CentPath {
		return algebra.CentPath{W: float64(1 + r.Intn(3)), P: float64(r.Intn(5)), C: int64(r.Intn(4) - 1)}
	}
	mpz, cpz := algebra.MultPathPairZero(), algebra.CentPathPairZero()

	var ext, tt [2][]sparse.Entry[algebra.MultPath]
	var p [2][]sparse.Entry[algebra.CentPath]
	// Z and T of one side share a pattern (collectFrontier joins by index).
	var z, zt [2][]sparse.Entry[algebra.CentPath]
	var ztT [2][]sparse.Entry[algebra.MultPath]
	for s := range ext {
		ext[s] = entriesOn(randPattern(r), mult)
		tt[s] = entriesOn(randPattern(r), mult)
		p[s] = entriesOn(randPattern(r), cent)
		at := randPattern(r)
		z[s] = entriesOn(at, cent)
		zt[s] = slices.Clone(z[s])
		ztT[s] = entriesOn(at, func() algebra.MultPath { return algebra.MultPath{W: 1, M: float64(1 + r.Intn(4))} })
	}
	extP, tP, pP := liftSides(mpz, ext), liftSides(mpz, tt), liftSides(cpz, p)
	zP, ztP := liftSides(cpz, z), liftSides(mpz, ztT)
	base := int64(r.Intn(2))

	// The screens compact their first argument in place; the lists are
	// reused below, so they screen copies.
	frontierP := screenFrontierSided(slices.Clone(extP), tP)
	screenedP, _ := screenCentSided(slices.Clone(pP), tP, indexed(tP), nil)
	builtP, _ := buildZSided(tP, pP, base, nil)
	collectedP := collectFrontierSided(nil, zP, ztP, everyPosition(zP), cpz)
	for s := 0; s < 2; s++ {
		sameOnSide(t, seed, s, "screenFrontier", sideOf(frontierP, s, algebra.MultPathIsZero), screenFrontierSided(slices.Clone(ext[s]), tt[s]))
		sameOnSide(t, seed, s, "screenCent", sideOf(screenedP, s, algebra.CentPathIsZero), first(screenCentSided(slices.Clone(p[s]), tt[s], indexed(tt[s]), nil)))
		sameOnSide(t, seed, s, "buildZ", sideOf(builtP, s, algebra.CentPathIsZero),
			sideOf(first(buildZSided(tt[s], p[s], base, nil)), 0, algebra.CentPathIsZero))
		sameOnSide(t, seed, s, "collectFrontier", sideOf(collectedP, s, algebra.CentPathIsZero), collectFrontierSided(nil, zt[s], ztT[s], everyPosition(zt[s]), algebra.CentPathZero()))
		sameOnSide(t, seed, s, "collectFrontier's in-place marking", sideOf(zP, s, algebra.CentPathIsZero), zt[s])
	}
}

func TestRulesSideIndependent(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkSideIndependence(t, seed)
	}
}

func FuzzRulesSideIndependent(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 1 << 40, -7} {
		f.Add(seed)
	}
	f.Fuzz(checkSideIndependence)
}
