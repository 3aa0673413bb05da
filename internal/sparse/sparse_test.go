package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
)

var addF = algebra.Monoid[float64]{
	Identity: 0,
	Op:       func(a, b float64) float64 { return a + b },
	IsZero:   func(a float64) bool { return a == 0 },
}

func mulF(a, b float64) float64 { return a * b }

// mulRef is the reference triple-loop multiply: the oracle Mul's
// Gustavson kernel is held against.
func mulRef[TA, TB, TC any](a *CSR[TA], b *CSR[TB], f func(TA, TB) TC, add algebra.Monoid[TC]) *CSR[TC] {
	acc := NewCOO[TC](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		acols, avals := a.Row(i)
		for k, ak := range acols {
			bcols, bvals := b.Row(int(ak))
			for x, j := range bcols {
				acc.Append(int32(i), j, f(avals[k], bvals[x]))
			}
		}
	}
	return FromCOO(acc, add)
}

func randomCSR(rows, cols, nnz int, seed int64) *CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < nnz; i++ {
		coo.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), float64(1+rng.Intn(9)))
	}
	return FromCOO(coo, addF)
}

func TestFromCOOCanonicalizes(t *testing.T) {
	coo := NewCOO[float64](3, 3)
	coo.Append(2, 1, 4)
	coo.Append(0, 0, 1)
	coo.Append(2, 1, 6) // duplicate: summed
	coo.Append(1, 2, 5)
	coo.Append(1, 1, 3)
	coo.Append(0, 2, -0.0) // zero after merge? no: stays -0 → IsZero(0) true
	a := FromCOO(coo, addF)
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
	bad := NewCOO[float64](2, 2)
	bad.Append(5, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range entry must fail validation")
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randomCSR(17, 23, 80, 3)
	att := Transpose(Transpose(a))
	if !Equal(a, att, func(x, y float64) bool { return x == y }) {
		t.Fatal("transpose twice must be identity")
	}
	at := Transpose(a)
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
		got, _ := Mul(a, b, mulF, addF)
		want := mulRef(a, b, mulF, addF)
		return Equal(got, want, func(x, y float64) bool { return x == y })
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulOpsCount(t *testing.T) {
	a := randomCSR(10, 10, 30, 5)
	b := randomCSR(10, 10, 30, 6)
	_, ops := Mul(a, b, mulF, addF)
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
	Mul(a, b, mulF, addF)
}

func TestMulTropicalShortestPath(t *testing.T) {
	// One step of min-plus matrix "squaring" on a path graph: distances of
	// up to two hops.
	coo := NewCOO[float64](4, 4)
	for i := 0; i < 3; i++ {
		coo.Append(int32(i), int32(i+1), 1)
		coo.Append(int32(i+1), int32(i), 1)
	}
	trop := algebra.TropicalMonoid()
	a := FromCOO(coo, trop)
	two, _ := Mul(a, a, func(x, y float64) float64 { return x + y }, trop)
	if v, ok := two.Get(0, 2); !ok || v != 2 {
		t.Fatalf("two-hop distance 0→2 = %v, want 2", v)
	}
}

func TestEWiseUnionAndZeroDrop(t *testing.T) {
	a := randomCSR(9, 9, 25, 7)
	b := randomCSR(9, 9, 25, 8)
	c := EWise(a, b, addF)
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
	neg := Map(a, addF, func(_, _ int32, v float64) float64 { return -v })
	zero := EWise(a, neg, addF)
	if zero.NNZ() != 0 {
		t.Fatalf("a + (-a) kept %d entries", zero.NNZ())
	}
}

func TestMaskKeepAndDrop(t *testing.T) {
	a := randomCSR(8, 8, 30, 9)
	m := randomCSR(8, 8, 20, 10)
	keep := Mask(a, m, true)
	drop := Mask(a, m, false)
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
	doubled := Map(a, addF, func(_, _ int32, v float64) float64 { return 2 * v })
	count := 0
	ZipJoin(a, doubled, func(_, _ int32, x, y float64) {
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
	b := FromCOO(a.ToCOO(), addF)
	if !Equal(a, b, func(x, y float64) bool { return x == y }) {
		t.Fatal("COO round trip changed the matrix")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := randomCSR(5, 5, 12, 14)
	if !Equal(a, a, func(x, y float64) bool { return x == y }) {
		t.Fatal("matrix must equal itself")
	}
	b := Map(a, addF, func(i, j int32, v float64) float64 {
		if i == 0 && j == a.ColIdx[0] {
			return v + 1
		}
		return v
	})
	if Equal(a, b, func(x, y float64) bool { return x == y }) {
		t.Fatal("value difference missed")
	}
}

// quickCOO lets testing/quick generate whole random COO matrices.
type quickCOO struct {
	E []Entry[float64]
}

func (quickCOO) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(40)
	es := make([]Entry[float64], n)
	for i := range es {
		es[i] = Entry[float64]{I: int32(r.Intn(9)), J: int32(r.Intn(9)), V: float64(r.Intn(5) - 2)}
	}
	return reflect.ValueOf(quickCOO{E: es})
}

// Canonicalize is idempotent and order-insensitive.
func TestCanonicalizeProperties(t *testing.T) {
	check := func(q quickCOO) bool {
		a := &COO[float64]{Rows: 9, Cols: 9, E: append([]Entry[float64]{}, q.E...)}
		b := &COO[float64]{Rows: 9, Cols: 9, E: append([]Entry[float64]{}, q.E...)}
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
