package algebra

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickMP wraps MultPath with a quick.Generator drawing from a small weight
// lattice so that ties (the interesting case) are common.
type quickMP MultPath

func (quickMP) Generate(r *rand.Rand, _ int) reflect.Value {
	v := quickMP(MultPathZero())
	if r.Intn(8) != 0 {
		v = quickMP{W: float64(1 + r.Intn(5)), M: float64(1 + r.Intn(4))}
	}
	return reflect.ValueOf(v)
}

// quickCP wraps CentPath likewise.
type quickCP CentPath

func (quickCP) Generate(r *rand.Rand, _ int) reflect.Value {
	v := quickCP(CentPathZero())
	if r.Intn(8) != 0 {
		v = quickCP{W: float64(1 + r.Intn(5)), P: float64(r.Intn(5)), C: int64(r.Intn(4))}
	}
	return reflect.ValueOf(v)
}

var quickCfg = &quick.Config{MaxCount: 4000}

func TestMultPathMonoidLaws(t *testing.T) {
	commutative := func(a, b quickMP) bool {
		return MultPathPlus(MultPath(a), MultPath(b)) == MultPathPlus(MultPath(b), MultPath(a))
	}
	if err := quick.Check(commutative, quickCfg); err != nil {
		t.Errorf("⊕ not commutative: %v", err)
	}
	associative := func(a, b, c quickMP) bool {
		x, y, z := MultPath(a), MultPath(b), MultPath(c)
		return MultPathPlus(MultPathPlus(x, y), z) == MultPathPlus(x, MultPathPlus(y, z))
	}
	if err := quick.Check(associative, quickCfg); err != nil {
		t.Errorf("⊕ not associative: %v", err)
	}
	identity := func(a quickMP) bool {
		return MultPathPlus(MultPath(a), MultPathZero()) == MultPath(a)
	}
	if err := quick.Check(identity, quickCfg); err != nil {
		t.Errorf("⊕ identity law failed: %v", err)
	}
}

func TestCentPathMonoidLaws(t *testing.T) {
	commutative := func(a, b quickCP) bool {
		return CentPathTimes(CentPath(a), CentPath(b)) == CentPathTimes(CentPath(b), CentPath(a))
	}
	if err := quick.Check(commutative, quickCfg); err != nil {
		t.Errorf("⊗ not commutative: %v", err)
	}
	associative := func(a, b, c quickCP) bool {
		x, y, z := CentPath(a), CentPath(b), CentPath(c)
		return CentPathTimes(CentPathTimes(x, y), z) == CentPathTimes(x, CentPathTimes(y, z))
	}
	if err := quick.Check(associative, quickCfg); err != nil {
		t.Errorf("⊗ not associative: %v", err)
	}
	identity := func(a quickCP) bool {
		return CentPathTimes(CentPath(a), CentPathZero()) == CentPath(a)
	}
	if err := quick.Check(identity, quickCfg); err != nil {
		t.Errorf("⊗ identity law failed: %v", err)
	}
}

// The Bellman-Ford action is a monoid action: f(f(a,w1),w2) = f(a,w1+w2)
// and it distributes over ⊕ on the weight-tie structure.
func TestBFActionIsMonoidAction(t *testing.T) {
	composed := func(a quickMP, w1, w2 uint8) bool {
		x := MultPath(a)
		u, v := float64(w1%16), float64(w2%16)
		return BFAction(BFAction(x, u), v) == BFAction(x, u+v)
	}
	if err := quick.Check(composed, quickCfg); err != nil {
		t.Errorf("f not an action of (W,+): %v", err)
	}
	distributes := func(a, b quickMP, w uint8) bool {
		x, y := MultPath(a), MultPath(b)
		u := float64(w % 16)
		return BFAction(MultPathPlus(x, y), u) == MultPathPlus(BFAction(x, u), BFAction(y, u))
	}
	if err := quick.Check(distributes, quickCfg); err != nil {
		t.Errorf("f does not distribute over ⊕: %v", err)
	}
}

func TestBrandesActionIsMonoidAction(t *testing.T) {
	composed := func(a quickCP, w1, w2 uint8) bool {
		x := CentPath(a)
		u, v := float64(w1%16), float64(w2%16)
		return BrandesAction(BrandesAction(x, u), v) == BrandesAction(x, u+v)
	}
	if err := quick.Check(composed, quickCfg); err != nil {
		t.Errorf("g not an action of (W,+): %v", err)
	}
}

func TestMultPathSemantics(t *testing.T) {
	a := MultPath{W: 2, M: 3}
	b := MultPath{W: 2, M: 5}
	c := MultPath{W: 1, M: 1}
	if got := MultPathPlus(a, b); got.W != 2 || got.M != 8 {
		t.Fatalf("tie must sum multiplicities, got %v", got)
	}
	if got := MultPathPlus(a, c); got != c {
		t.Fatalf("lower weight must win, got %v", got)
	}
	if !MultPathIsZero(MultPathZero()) || MultPathIsZero(a) {
		t.Fatal("IsZero misclassifies")
	}
	if got := BFAction(a, 4.5); got.W != 6.5 || got.M != 3 {
		t.Fatalf("Bellman-Ford action wrong: %v", got)
	}
}

func TestCentPathSemantics(t *testing.T) {
	a := CentPath{W: 3, P: 0.5, C: 2}
	b := CentPath{W: 3, P: 0.25, C: -1}
	lo := CentPath{W: 1, P: 9, C: 9}
	if got := CentPathTimes(a, b); got.W != 3 || got.P != 0.75 || got.C != 1 {
		t.Fatalf("⊗ tie wrong: %v", got)
	}
	// The *higher* weight wins (the paper's formalism; its prose is
	// inverted) — this is what screens spurious back-propagation.
	if got := CentPathTimes(a, lo); got != a {
		t.Fatalf("higher weight must win, got %v", got)
	}
	if got := BrandesAction(a, 1.5); got.W != 1.5 || got.P != 0.5 || got.C != 2 {
		t.Fatalf("Brandes action wrong: %v", got)
	}
}

func TestTropicalMonoid(t *testing.T) {
	m := TropicalMonoid()
	if m.Op(3, 5) != 3 || m.Op(5, 3) != 3 {
		t.Fatal("tropical min wrong")
	}
	if !m.IsZero(m.Identity) || m.IsZero(7) {
		t.Fatal("tropical zero wrong")
	}
	if !math.IsInf(m.Identity, 1) {
		t.Fatal("tropical identity must be +inf")
	}
}

// fold combines xs with the monoid operation, returning Identity for an
// empty slice.
func fold[T any](m Monoid[T], xs ...T) T {
	acc := m.Identity
	for _, x := range xs {
		acc = m.Op(acc, x)
	}
	return acc
}

func TestFold(t *testing.T) {
	m := MultPathMonoid()
	if got := fold(m); !MultPathIsZero(got) {
		t.Fatal("empty fold must be identity")
	}
	got := fold(m, MultPath{W: 4, M: 1}, MultPath{W: 2, M: 2}, MultPath{W: 2, M: 3})
	if got.W != 2 || got.M != 5 {
		t.Fatalf("fold wrong: %v", got)
	}
	cm := CountMonoid()
	if cm.Op(2, 3) != 5 || !cm.IsZero(0) || cm.IsZero(1) {
		t.Fatal("count monoid wrong")
	}
}
