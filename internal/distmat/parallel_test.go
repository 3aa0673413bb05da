package distmat

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/sparse"
)

// randUniqueEntries builds n coordinate-unique entries in random order.
func randUniqueEntries(n int, seed int64) []sparse.Entry[float64] {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int32]bool, n)
	out := make([]sparse.Entry[float64], 0, n)
	for len(out) < n {
		c := [2]int32{int32(rng.Intn(4 * n)), int32(rng.Intn(64))}
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, sparse.Entry[float64]{I: c[0], J: c[1], V: rng.Float64()})
	}
	return out
}

func entriesEqual(a, b []sparse.Entry[float64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randSortedEntries builds a sorted duplicate-free entry slice.
func randSortedEntries(n int, seed int64) []sparse.Entry[float64] {
	e := randUniqueEntries(n, seed)
	SortEntries(e)
	return e
}

// TestMergeSortedParallelMatchesSequential includes heavy coordinate
// overlap so monoid collisions (and zero-dropping) are exercised at
// segment boundaries.
func TestMergeSortedParallelMatchesSequential(t *testing.T) {
	trop := algebra.TropicalMonoid()
	for _, tc := range []struct{ na, nb int }{
		{0, 100}, {100, 0}, {50, 50},
		{mergeParallelMin, mergeParallelMin},
		{3 * mergeParallelMin, mergeParallelMin / 2},
	} {
		a := randSortedEntries(tc.na, 1) // same seed ranges force overlaps
		b := randSortedEntries(tc.nb, 2)
		want := MergeSorted(a, b, trop)
		for _, w := range []int{0, 1, 2, 3, 7} {
			got := MergeSortedParallel(a, b, trop, w)
			if !entriesEqual(got, want) {
				t.Fatalf("na=%d nb=%d workers=%d: parallel merge differs", tc.na, tc.nb, w)
			}
		}
	}
}

// TestMergeSortedParallelIdenticalSlices maximizes collisions: every
// coordinate merges, so any boundary mistake double-counts or drops.
func TestMergeSortedParallelIdenticalSlices(t *testing.T) {
	count := algebra.CountMonoid()
	a := randSortedEntries(2*mergeParallelMin, 5)
	want := MergeSorted(a, a, count)
	for _, w := range []int{2, 4, 9} {
		got := MergeSortedParallel(a, a, count, w)
		if !entriesEqual(got, want) {
			t.Fatalf("workers=%d: self-merge differs", w)
		}
	}
}
