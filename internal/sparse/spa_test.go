package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSPADrainOrder: the accumulator drains the keys touched since its last
// drain, ascending and once each, under both rules — a list shorter than the
// bitset has words is sorted, a longer one read off the bitset — and leaves
// its occupancy clear, whatever size it is readied for next.
func TestSPADrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a SPA[int]
	for _, n := range []int{1000, 64, 5000, 63, 1, 4096} {
		a.Size(n)
		if len(a.Val) != n {
			t.Fatalf("Size(%d) left a slab of %d", n, len(a.Val))
		}
		words := (n + 63) / 64
		for round := 0; round < 40; round++ {
			var want []int32
			for x := rng.Intn(2*words + 3); x > 0; x-- {
				k := int32(rng.Intn(n))
				first := !slices.Contains(want, k)
				if a.Touch(k) != first {
					t.Fatalf("n=%d: Touch(%d) first=%t, want %t", n, k, !first, first)
				}
				if first {
					want = append(want, k)
				}
			}
			slices.Sort(want)
			if got := a.Drain(); !slices.Equal(got, want) {
				t.Fatalf("n=%d: drained %v, want %v", n, got, want)
			}
		}
	}
}
