package sparse_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/algebra"
	"repro/internal/sparse"
	"repro/internal/testkit"
)

var addF = algebra.Monoid[float64]{
	Identity: 0,
	Op:       func(a, b float64) float64 { return a + b },
	IsZero:   func(a float64) bool { return a == 0 },
}

func mulF(a, b float64) float64 { return a * b }

// mulRef is the reference triple-loop multiply: the oracle Mul's
// Gustavson kernel is held against.
func mulRef[TA, TB, TC any](a *sparse.CSR[TA], b *sparse.CSR[TB], f func(TA, TB) TC, add algebra.Monoid[TC]) *sparse.CSR[TC] {
	acc := sparse.NewCOO[TC](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		acols, avals := a.Row(i)
		for k, ak := range acols {
			bcols, bvals := b.Row(int(ak))
			for x, j := range bcols {
				acc.Append(int32(i), j, f(avals[k], bvals[x]))
			}
		}
	}
	return sparse.FromCOO(acc, add)
}

func randomCSR(rows, cols, nnz int, seed int64) *sparse.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](rows, cols)
	for i := 0; i < nnz; i++ {
		coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), float64(1+rng.Intn(9)))
	}
	return sparse.FromCOO(coo, addF)
}

func TestFromCOOCanonicalizes(t *testing.T) {
	coo := sparse.NewCOO[float64](3, 3)
	coo.Append(2, 1, 4)
	coo.Append(0, 0, 1)
	coo.Append(2, 1, 6) // duplicate: summed
	coo.Append(1, 2, 5)
	coo.Append(1, 1, 3)
	coo.Append(0, 2, -0.0) // zero after merge? no: stays -0 → IsZero(0) true
	a := sparse.FromCOO(coo, addF)
	if a.NNZ() != 4 {
		t.Fatalf("nnz=%d want 4", a.NNZ())
	}
	if v, ok := a.Get(2, 1); !ok || v != 10 {
		t.Fatalf("duplicate merge wrong: %v %v", v, ok)
	}
	cols, _ := a.Row(1)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Fatalf("row 1 not sorted: %v", cols)
	}
	if err := coo.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sparse.NewCOO[float64](2, 2)
	bad.Append(5, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range entry must fail validation")
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randomCSR(17, 23, 80, 3)
	att := sparse.Transpose(sparse.Transpose(a))
	if !testkit.Equal(a, att, func(x, y float64) bool { return x == y }) {
		t.Fatal("transpose twice must be identity")
	}
	at := sparse.Transpose(a)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			v, ok := at.Get(j, int32(i))
			if !ok || v != vals[k] {
				t.Fatalf("A(%d,%d)=%v missing from Aᵀ", i, j, vals[k])
			}
		}
	}
}

// TestMulMatchesReference is the property test: Gustavson with SPA must
// agree with the triple-loop reference on random inputs.
func TestMulMatchesReference(t *testing.T) {
	check := func(seedA, seedB uint16) bool {
		a := randomCSR(13, 11, 40, int64(seedA))
		b := randomCSR(11, 17, 50, int64(seedB))
		got, _ := sparse.Mul(a, b, mulF, addF)
		want := mulRef(a, b, mulF, addF)
		return testkit.Equal(got, want, func(x, y float64) bool { return x == y })
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulOpsCount(t *testing.T) {
	a := randomCSR(10, 10, 30, 5)
	b := randomCSR(10, 10, 30, 6)
	_, ops := sparse.Mul(a, b, mulF, addF)
	var want int64
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, k := range cols {
			bc, _ := b.Row(int(k))
			want += int64(len(bc))
		}
	}
	if ops != want {
		t.Fatalf("ops=%d want %d", ops, want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	a := randomCSR(4, 5, 6, 1)
	b := randomCSR(6, 4, 6, 2)
	sparse.Mul(a, b, mulF, addF)
}

func TestMulTropicalShortestPath(t *testing.T) {
	// One step of min-plus matrix "squaring" on a path graph: distances of
	// up to two hops.
	coo := sparse.NewCOO[float64](4, 4)
	for i := 0; i < 3; i++ {
		coo.Append(int32(i), int32(i+1), 1)
		coo.Append(int32(i+1), int32(i), 1)
	}
	trop := algebra.TropicalMonoid()
	a := sparse.FromCOO(coo, trop)
	two, _ := sparse.Mul(a, a, func(x, y float64) float64 { return x + y }, trop)
	if v, ok := two.Get(0, 2); !ok || v != 2 {
		t.Fatalf("two-hop distance 0→2 = %v, want 2", v)
	}
}

func TestEWiseUnionAndZeroDrop(t *testing.T) {
	a := randomCSR(9, 9, 25, 7)
	b := randomCSR(9, 9, 25, 8)
	c := sparse.EWise(a, b, addF)
	// Every coordinate of a and b appears, values summed.
	for i := 0; i < 9; i++ {
		cols, vals := c.Row(i)
		for k, j := range cols {
			av, _ := a.Get(int32(i), j)
			bv, _ := b.Get(int32(i), j)
			if vals[k] != av+bv {
				t.Fatalf("ewise(%d,%d)=%v want %v", i, j, vals[k], av+bv)
			}
		}
	}
	// a ⊕ (-a) must vanish entirely.
	neg := sparse.Map(a, addF, func(_, _ int32, v float64) float64 { return -v })
	zero := sparse.EWise(a, neg, addF)
	if zero.NNZ() != 0 {
		t.Fatalf("a + (-a) kept %d entries", zero.NNZ())
	}
}

func TestMaskKeepAndDrop(t *testing.T) {
	a := randomCSR(8, 8, 30, 9)
	m := randomCSR(8, 8, 20, 10)
	keep := sparse.Mask(a, m, true)
	drop := sparse.Mask(a, m, false)
	if keep.NNZ()+drop.NNZ() != a.NNZ() {
		t.Fatal("mask must partition the entries")
	}
	for i := 0; i < 8; i++ {
		cols, _ := keep.Row(i)
		for _, j := range cols {
			if _, ok := m.Get(int32(i), j); !ok {
				t.Fatal("keep-mask leaked an unmasked entry")
			}
		}
		cols, _ = drop.Row(i)
		for _, j := range cols {
			if _, ok := m.Get(int32(i), j); ok {
				t.Fatal("anti-mask kept a masked entry")
			}
		}
	}
}

func TestFilterMapZip(t *testing.T) {
	a := randomCSR(6, 6, 20, 11)
	doubled := sparse.Map(a, addF, func(_, _ int32, v float64) float64 { return 2 * v })
	count := 0
	testkit.ZipJoin(a, doubled, func(_, _ int32, x, y float64) {
		count++
		if y != 2*x {
			t.Fatalf("map wrong: %v vs %v", x, y)
		}
	})
	if count != a.NNZ() {
		t.Fatalf("zipjoin visited %d of %d", count, a.NNZ())
	}
}

func TestToCOORoundTrip(t *testing.T) {
	a := randomCSR(12, 14, 60, 13)
	b := sparse.FromCOO(a.ToCOO(), addF)
	if !testkit.Equal(a, b, func(x, y float64) bool { return x == y }) {
		t.Fatal("sparse.COO round trip changed the matrix")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := randomCSR(5, 5, 12, 14)
	if !testkit.Equal(a, a, func(x, y float64) bool { return x == y }) {
		t.Fatal("matrix must equal itself")
	}
	b := sparse.Map(a, addF, func(i, j int32, v float64) float64 {
		if i == 0 && j == a.ColIdx[0] {
			return v + 1
		}
		return v
	})
	if testkit.Equal(a, b, func(x, y float64) bool { return x == y }) {
		t.Fatal("value difference missed")
	}
}

// quickCOO lets testing/quick generate whole random COO matrices.
type quickCOO struct {
	E []sparse.Entry[float64]
}

func (quickCOO) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(40)
	es := make([]sparse.Entry[float64], n)
	for i := range es {
		es[i] = sparse.Entry[float64]{I: int32(r.Intn(9)), J: int32(r.Intn(9)), V: float64(r.Intn(5) - 2)}
	}
	return reflect.ValueOf(quickCOO{E: es})
}

// Canonicalize is idempotent and order-insensitive.
func TestCanonicalizeProperties(t *testing.T) {
	check := func(q quickCOO) bool {
		a := &sparse.COO[float64]{Rows: 9, Cols: 9, E: append([]sparse.Entry[float64]{}, q.E...)}
		b := &sparse.COO[float64]{Rows: 9, Cols: 9, E: append([]sparse.Entry[float64]{}, q.E...)}
		rand.New(rand.NewSource(1)).Shuffle(len(b.E), func(i, j int) { b.E[i], b.E[j] = b.E[j], b.E[i] })
		a.Canonicalize(addF)
		b.Canonicalize(addF)
		aa := a.Clone()
		aa.Canonicalize(addF)
		if len(a.E) != len(b.E) || len(a.E) != len(aa.E) {
			return false
		}
		for i := range a.E {
			if a.E[i] != b.E[i] || a.E[i] != aa.E[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// hubCOO is a shuffled rows×cols COO with duplicate coordinates, values in
// [−2, 2] so that some duplicates fold to zero, and one hub row of hub
// entries (duplicates among them). Values are small integers, so every fold
// is exact in any order.
func hubCOO(rng *rand.Rand, rows, cols, hub int) *sparse.COO[float64] {
	a := sparse.NewCOO[float64](rows, cols)
	val := func() float64 { return float64(rng.Intn(5) - 2) }
	for k := 0; k < 4*rows; k++ {
		i, j := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		a.Append(i, j, val())
		if k%3 == 0 {
			a.Append(i, j, val())
		}
	}
	h := int32(rng.Intn(rows))
	for k := 0; k < hub; k++ {
		a.Append(h, int32(rng.Intn(cols)), val())
	}
	rng.Shuffle(len(a.E), func(x, y int) { a.E[x], a.E[y] = a.E[y], a.E[x] })
	return a
}

// canonicalByDefinition is what Canonicalize did before it bucketed rows: a
// copy of a's entries under one comparison sort by (row, col), each run at
// one coordinate folded, zero folds dropped.
func canonicalByDefinition[T any](a *sparse.COO[T], m algebra.Monoid[T]) []sparse.Entry[T] {
	es := slices.Clone(a.E)
	sort.Slice(es, func(x, y int) bool {
		if es[x].I != es[y].I {
			return es[x].I < es[y].I
		}
		return es[x].J < es[y].J
	})
	var out []sparse.Entry[T]
	for x := 0; x < len(es); {
		cur, y := es[x], x+1
		for ; y < len(es) && es[y].I == cur.I && es[y].J == cur.J; y++ {
			cur.V = m.Op(cur.V, es[y].V)
		}
		if !m.IsZero(cur.V) {
			out = append(out, cur)
		}
		x = y
	}
	return out
}

// TestFromCOOMatchesDefinition: on shuffled COOs with duplicates, zero
// folds and a hub row of 1,000 to 4,000 entries, FromCOO and Canonicalize
// give the old definition's entries, and FromCOO leaves its input as it
// was. The shuffle leaves the rows out of column order, so they are sorted.
func TestFromCOOMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		a := hubCOO(rng, 1+rng.Intn(60), 1+rng.Intn(3000), 1000+rng.Intn(3000))
		before := slices.Clone(a.E)
		want := canonicalByDefinition(a, addF)
		got := sparse.FromCOO(a, addF)
		if !slices.Equal(a.E, before) {
			t.Fatalf("trial %d: sparse.FromCOO changed its input", trial)
		}
		if !slices.Equal(got.ToCOO().E, want) {
			t.Fatalf("trial %d: sparse.FromCOO differs from the definition (%d entries, want %d)", trial, got.NNZ(), len(want))
		}
		if got.NNZ() == 0 || len(want) == len(before) {
			t.Fatalf("trial %d: %d of %d entries kept: the case folds nothing", trial, len(want), len(before))
		}
		c := a.Clone()
		c.Canonicalize(addF)
		if !slices.Equal(c.E, want) {
			t.Fatalf("trial %d: Canonicalize differs from the definition", trial)
		}
	}
}

// rowsAsListed is a CSR holding a's entries bucketed by row, each row in
// its order in a.E, duplicates and zeros kept: what CSR.Canonicalize is
// handed.
func rowsAsListed(a *sparse.COO[float64]) *sparse.CSR[float64] {
	out := &sparse.CSR[float64]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		for _, e := range a.E {
			if int(e.I) == r {
				out.ColIdx = append(out.ColIdx, e.J)
				out.Val = append(out.Val, e.V)
			}
		}
		out.RowPtr[r+1] = int64(len(out.ColIdx))
	}
	return out
}

// TestCSRCanonicalizeMatchesDefinition: on rows filled in shuffled order,
// with duplicates, zero folds and a hub row, CSR.Canonicalize gives the
// definition's entries in place; a reversed hub row of 2¹⁸ entries sorts
// in well under the 10 s bound.
func TestCSRCanonicalizeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := hubCOO(rng, 1+rng.Intn(60), 1+rng.Intn(3000), 1000+rng.Intn(3000))
		want := canonicalByDefinition(a, addF)
		got := rowsAsListed(a)
		got.Canonicalize(addF)
		if !slices.Equal(got.ToCOO().E, want) || got.RowPtr[got.Rows] != int64(len(got.ColIdx)) || len(got.Val) != len(got.ColIdx) {
			t.Fatalf("trial %d: CSR.Canonicalize differs from the definition (%d entries, want %d)", trial, got.NNZ(), len(want))
		}
	}
	const n = 1 << 18
	hub := &sparse.CSR[float64]{Rows: 2, Cols: n, RowPtr: []int64{0, 0, n}, ColIdx: make([]int32, n), Val: make([]float64, n)}
	for k := range hub.ColIdx {
		hub.ColIdx[k], hub.Val[k] = int32(n-1-k), 1
	}
	start := time.Now()
	hub.Canonicalize(addF)
	if cols, _ := hub.Row(1); len(cols) != n || !slices.IsSorted(cols) {
		t.Fatalf("hub row: %d columns, sorted %t", len(cols), slices.IsSorted(cols))
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("a %d-entry hub row took %v to sort", n, took)
	}
}

// TestFromCOOHubRowNotQuadratic: one row of 2¹⁸ entries in descending
// column order — the worst case of a quadratic per-row sort, 3·10¹⁰ moves
// that take minutes — is sorted in a fraction of a second (well under the
// 10 s bound, race detector included).
func TestFromCOOHubRowNotQuadratic(t *testing.T) {
	const n = 1 << 18
	a := sparse.NewCOO[float64](2, n)
	for j := int32(n - 1); j >= 0; j-- {
		a.Append(1, j, 1)
	}
	start := time.Now()
	got := sparse.FromCOO(a, addF)
	took := time.Since(start)
	cols, _ := got.Row(1)
	if len(cols) != n || !slices.IsSorted(cols) {
		t.Fatalf("hub row: %d columns, sorted %t", len(cols), slices.IsSorted(cols))
	}
	if took > 10*time.Second {
		t.Fatalf("a %d-entry hub row took %v to sort", n, took)
	}
}
