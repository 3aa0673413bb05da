package algebra_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/testkit"
)

func TestWeightPairMonoid(t *testing.T) {
	m := testkit.WeightPairMonoid()
	got := m.Op(algebra.WeightPair{Old: 3, New: algebra.Inf}, algebra.WeightPair{Old: 5, New: 2})
	if got != (algebra.WeightPair{Old: 3, New: 2}) {
		t.Fatalf("componentwise min wrong: %v", got)
	}
	if !m.IsZero(m.Identity) || m.IsZero(got) {
		t.Fatal("IsZero misclassifies")
	}
}
