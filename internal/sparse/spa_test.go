package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSPADrainOrder: each lane drains the keys it touched since its last
// drain, ascending and once each, under both rules — a list shorter than the
// bitset has words is sorted, a longer one read off the bitset — and leaves
// its occupancy clear, whatever size the accumulator is readied for next.
// Lanes over one slab keep their own occupancy.
func TestSPADrainOrder(t *testing.T) {
	const lanes = 3
	rng := rand.New(rand.NewSource(1))
	var a SPA[int]
	for _, n := range []int{1000, 64, 5000, 63, 1, 4096} {
		a.Size(n, lanes)
		if len(a.Val) != n {
			t.Fatalf("Size(%d) left a slab of %d", n, len(a.Val))
		}
		words := (n + 63) / 64
		for round := 0; round < 40; round++ {
			want := make([][]int32, lanes)
			for x := rng.Intn(2*words + 3); x > 0; x-- {
				k := int32(rng.Intn(n))
				w := int(k) % lanes // lanes touch disjoint keys
				first := !slices.Contains(want[w], k)
				if a.Lane(w).Touch(k) != first {
					t.Fatalf("n=%d: Touch(%d) first=%t, want %t", n, k, !first, first)
				}
				if first {
					want[w] = append(want[w], k)
				}
			}
			for w, keys := range want {
				slices.Sort(keys)
				if got := a.Lane(w).Drain(); !slices.Equal(got, keys) {
					t.Fatalf("n=%d lane %d: drained %v, want %v", n, w, got, keys)
				}
			}
		}
	}
}
