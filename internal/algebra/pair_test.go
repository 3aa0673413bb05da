package algebra

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type quickMPP MultPathPair

func (quickMPP) Generate(r *rand.Rand, sz int) reflect.Value {
	side := func() MultPath {
		if r.Intn(8) == 0 {
			return MultPathZero()
		}
		return MultPath{W: float64(1 + r.Intn(5)), M: float64(1 + r.Intn(4))}
	}
	return reflect.ValueOf(quickMPP{Old: side(), New: side()})
}

type quickCPP CentPathPair

func (quickCPP) Generate(r *rand.Rand, sz int) reflect.Value {
	side := func() CentPath {
		if r.Intn(8) == 0 {
			return CentPathZero()
		}
		return CentPath{W: float64(1 + r.Intn(5)), P: float64(r.Intn(5)), C: int64(r.Intn(4))}
	}
	return reflect.ValueOf(quickCPP{Old: side(), New: side()})
}

func TestMultPathPairMonoidLaws(t *testing.T) {
	m := MultPathPairMonoid()
	commutative := func(a, b quickMPP) bool {
		return m.Op(MultPathPair(a), MultPathPair(b)) == m.Op(MultPathPair(b), MultPathPair(a))
	}
	if err := quick.Check(commutative, quickCfg); err != nil {
		t.Errorf("pair ⊕ not commutative: %v", err)
	}
	associative := func(a, b, c quickMPP) bool {
		x, y, z := MultPathPair(a), MultPathPair(b), MultPathPair(c)
		return m.Op(m.Op(x, y), z) == m.Op(x, m.Op(y, z))
	}
	if err := quick.Check(associative, quickCfg); err != nil {
		t.Errorf("pair ⊕ not associative: %v", err)
	}
	identity := func(a quickMPP) bool {
		return m.Op(MultPathPair(a), m.Identity) == MultPathPair(a)
	}
	if err := quick.Check(identity, quickCfg); err != nil {
		t.Errorf("pair ⊕ identity law failed: %v", err)
	}
}

func TestCentPathPairMonoidLaws(t *testing.T) {
	m := CentPathPairMonoid()
	commutative := func(a, b quickCPP) bool {
		return m.Op(CentPathPair(a), CentPathPair(b)) == m.Op(CentPathPair(b), CentPathPair(a))
	}
	if err := quick.Check(commutative, quickCfg); err != nil {
		t.Errorf("pair ⊗ not commutative: %v", err)
	}
	associative := func(a, b, c quickCPP) bool {
		x, y, z := CentPathPair(a), CentPathPair(b), CentPathPair(c)
		return m.Op(m.Op(x, y), z) == m.Op(x, m.Op(y, z))
	}
	if err := quick.Check(associative, quickCfg); err != nil {
		t.Errorf("pair ⊗ not associative: %v", err)
	}
}

// Pair folds over live-on-one-side values must be bit-identical to scalar
// folds of the live side: the dead component is an exact no-op.
func TestPairComponentIndependence(t *testing.T) {
	mp := MultPathMonoid()
	mpp := MultPathPairMonoid()
	scalar := []MultPath{{W: 2, M: 1}, {W: 2, M: 3}, {W: 4, M: 9}}
	lifted := []MultPathPair{
		{Old: scalar[0], New: MultPathZero()},
		{Old: scalar[1], New: MultPath{W: 1, M: 5}},
		{Old: scalar[2], New: MultPathZero()},
	}
	want := fold(mp, scalar...)
	got := fold(mpp, lifted...)
	if got.Old != want {
		t.Fatalf("old component diverged: %v vs %v", got.Old, want)
	}
	if got.New != (MultPath{W: 1, M: 5}) {
		t.Fatalf("new component wrong: %v", got.New)
	}
}

func TestBFActionPairKillsAbsentSides(t *testing.T) {
	a := MultPathPair{Old: MultPath{W: 3, M: 2}, New: MultPath{W: 3, M: 2}}
	got := BFActionPair(a, WeightPair{Old: 1.5, New: Inf})
	if got.Old != (MultPath{W: 4.5, M: 2}) {
		t.Fatalf("live side wrong: %v", got.Old)
	}
	if got.New != MultPathZero() {
		t.Fatalf("absent edge must produce the exact zero, got %v", got.New)
	}
}

func TestBrandesActionPairKillsAbsentSides(t *testing.T) {
	a := CentPathPair{Old: CentPath{W: 5, P: 0.5, C: 1}, New: CentPath{W: 5, P: 0.5, C: 1}}
	got := BrandesActionPair(a, WeightPair{Old: Inf, New: 2})
	if got.Old != CentPathZero() {
		t.Fatalf("absent edge must produce the exact zero, got %v", got.Old)
	}
	if got.New != (CentPath{W: 3, P: 0.5, C: 1}) {
		t.Fatalf("live side wrong: %v", got.New)
	}
	dead := BrandesActionPair(CentPathPairZero(), WeightPair{Old: 1, New: 1})
	if !CentPathPairIsZero(dead) {
		t.Fatalf("dead input must stay dead, got %v", dead)
	}
}

func TestWeightPairMonoid(t *testing.T) {
	m := WeightPairMonoid()
	got := m.Op(WeightPair{Old: 3, New: Inf}, WeightPair{Old: 5, New: 2})
	if got != (WeightPair{Old: 3, New: 2}) {
		t.Fatalf("componentwise min wrong: %v", got)
	}
	if !m.IsZero(m.Identity) || m.IsZero(got) {
		t.Fatal("IsZero misclassifies")
	}
}
